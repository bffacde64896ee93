package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The machine reference. On a shared box the speed of a core's memory
// system changes by tens of percent over minutes, with whatever the
// neighbours are doing, and it moves every workload here with it: over
// 20-second windows the time of this fixed memory-bound work and the time of
// an engine search correlate at 0.95 with a slope near 1, while their ratio
// varies three times less than either (README.md has the record). So the
// reference runs between slices, and the time metrics are reported per unit
// of reference time, scaled by refNominal back to seconds of the box the
// bounds were frozen on. A change to the program cannot move the reference:
// it runs right after a forced GC, allocates nothing, and touches only its
// own memory, which lives outside the Go heap so that it cannot act as GC
// ballast for the program either.

const (
	refChaseWords = 4 << 20 // 16 MiB: a dependent walk that misses the private caches
	refChaseSteps = 260_000
	refPages      = 8192 // 32 MiB of 4 KiB pages to copy between
	refCopies     = 40_000
	refPageSize   = 4096
	refChunks     = 6
)

// refNominal is the reference's usual time on the box the bounds were frozen
// on (66–85 ms there). It only fixes the scale: a reported time is a wall
// time multiplied by refNominal and divided by the reference time measured
// around it, so on that box reported and wall-clock numbers are about equal.
const refNominal = 75 * time.Millisecond

type machineRef struct {
	chase []uint32
	pages []byte
}

// newMachineRef maps the reference's memory and lays the walk out as one
// full cycle: an LCG modulo a power of two with a ≡ 1 (mod 4) and odd c
// visits every index once, in an order no prefetcher follows.
func newMachineRef() (*machineRef, error) {
	const size = refChaseWords*4 + refPages*refPageSize
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	r := &machineRef{
		chase: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refChaseWords),
		pages: mem[refChaseWords*4:],
	}
	for i := range r.chase {
		r.chase[i] = (uint32(i)*1664525 + 1013904223) & (refChaseWords - 1)
	}
	for i := range r.pages {
		r.pages[i] = byte(i >> 12)
	}
	return r, nil
}

// run does the fixed work in refChunks equal chunks and returns refChunks
// times the median chunk. The reference is after the machine's sustained
// speed, which drifts over minutes; a burst that hits one chunk (the
// hypervisor taking the core for a few milliseconds) is the guard's business,
// and the median keeps it out: chunk medians vary a third as much as sums.
func (r *machineRef) run() time.Duration {
	var chunks [refChunks]float64
	x := uint32(0)
	for k := range chunks {
		start := time.Now()
		for i := 0; i < refChaseSteps/refChunks; i++ {
			x = r.chase[x]
		}
		for i := 0; i < refCopies/refChunks; i++ {
			src := ((i*101 + int(x&1)) & (refPages - 1)) * refPageSize
			dst := ((i*37 + k) & (refPages - 1)) * refPageSize
			copy(r.pages[dst:dst+refPageSize], r.pages[src:src+refPageSize])
		}
		chunks[k] = float64(time.Since(start))
	}
	return time.Duration(refChunks * median(chunks[:]))
}
