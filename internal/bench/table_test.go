package bench

import (
	"strings"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"name", "value"}}
	tb.AddRow("alpha", 42)
	tb.AddRow("b", 7.5)
	tb.AddRow("dur", 1500*time.Microsecond)
	out := tb.Render()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "42") {
		t.Error("missing cells")
	}
	if !strings.Contains(out, "7.50") {
		t.Error("float formatting")
	}
	if !strings.Contains(out, "1.50ms") {
		t.Errorf("duration formatting: %s", out)
	}
	// Alignment: the header and first row start columns at same offsets.
	lines := strings.Split(out, "\n")
	if len(lines) < 5 {
		t.Fatalf("lines = %d", len(lines))
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Nanosecond:   "500ns",
		1500 * time.Nanosecond:  "1.50µs",
		2500 * time.Microsecond: "2.50ms",
		1500 * time.Millisecond: "1.500s",
	}
	for d, want := range cases {
		if got := formatDuration(d); got != want {
			t.Errorf("formatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2048:    "2.0KiB",
		3 << 20: "3.0MiB",
		5 << 30: "5.00GiB",
	}
	for n, want := range cases {
		if got := formatBytes(n); got != want {
			t.Errorf("formatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(2*time.Second, time.Second); got != "2.00x" {
		t.Errorf("ratio = %q", got)
	}
	if got := ratio(time.Second, 0); got != "n/a" {
		t.Errorf("ratio zero = %q", got)
	}
}

func TestTime(t *testing.T) {
	d := timed(func() { time.Sleep(5 * time.Millisecond) })
	if d < 4*time.Millisecond {
		t.Errorf("timed measured %v", d)
	}
}
