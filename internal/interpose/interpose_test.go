package interpose

import (
	"errors"
	"testing"
)

func TestErrnoRoundTrip(t *testing.T) {
	for _, e := range []int{ENOENT, EBADF, ENOMEM, EACCES, EFAULT, EINVAL, ENOSYS, ENOTSUP} {
		v := ErrnoRet(e)
		got, ok := IsErrnoRet(v)
		if !ok || got != e {
			t.Errorf("errno %d round-trip = %d, %v", e, got, ok)
		}
	}
	if _, ok := IsErrnoRet(0); ok {
		t.Error("0 decoded as errno")
	}
	if _, ok := IsErrnoRet(42); ok {
		t.Error("42 decoded as errno")
	}
	if _, ok := IsErrnoRet(^uint64(0) - 10000); ok {
		t.Error("large negative decoded as errno")
	}
}

func TestPathPolicy(t *testing.T) {
	allowed := []string{"/home/x/file.txt", "/out.txt", "/a/b/c", "relative/ok"}
	denied := []string{"", "/dev/mem", "/dev/null", "/proc/self/mem", "/sys/kernel",
		"tcp:127.0.0.1:80", "unix:/tmp/sock", "/dev"}
	for _, p := range allowed {
		if !PathAllowed(p) {
			t.Errorf("PathAllowed(%q) = false, want true", p)
		}
	}
	for _, p := range denied {
		if PathAllowed(p) {
			t.Errorf("PathAllowed(%q) = true, want false", p)
		}
	}
}

func TestUndoLogRollback(t *testing.T) {
	var log UndoLog
	var trace []string
	log.Log("a", func() error { trace = append(trace, "a"); return nil })
	log.Log("b", func() error { trace = append(trace, "b"); return nil })
	log.Log("c", func() error { trace = append(trace, "c"); return errors.New("c failed") })
	if log.Len() != 3 {
		t.Fatalf("len = %d", log.Len())
	}
	err := log.Rollback()
	if err == nil || err.Error() != "c failed" {
		t.Errorf("rollback err = %v", err)
	}
	// Reverse order, all attempted despite the error.
	if len(trace) != 3 || trace[0] != "c" || trace[1] != "b" || trace[2] != "a" {
		t.Errorf("trace = %v", trace)
	}
	if log.Len() != 0 {
		t.Errorf("len after rollback = %d", log.Len())
	}
}
