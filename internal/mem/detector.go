package mem

import (
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// Double-free / leak detector for the []byte pools (the pools every wire
// path leases from). Armed automatically in -race builds and by
// SLINGSHOT_POOL=debug; off otherwise so the hot path stays two atomic
// loads. It tracks backing-array pointers:
//
//   - pooled: buffers currently resting in a pool. PutBytes on a pointer
//     already here is a double free → panic with both call sites' sizes.
//   - leased (debug mode only): buffers currently leased out. LeakedLeases
//     reports the count so tests can assert a slot drained fully. Not
//     maintained in plain -race builds — intentional lose-to-GC paths
//     (dropped frames) would grow it without bound across a full test run.
var (
	raceEnabled   bool // set by detector_race.go in -race builds
	debugDetector bool // set from SLINGSHOT_POOL=debug

	detMu     sync.Mutex
	detPooled map[*byte]struct{}
	detLeased map[*byte]struct{}
)

func detectorOn() bool { return raceEnabled || debugDetector }

// DetectorArmed reports whether lease tracking is active (-race build or
// SLINGSHOT_POOL=debug). Allocation-count tests skip when it is: the
// detector's bookkeeping allocates, which is the point of debug mode and
// the ruin of testing.AllocsPerRun.
func DetectorArmed() bool { return detectorOn() }

func detectorLease(b []byte) {
	if !detectorOn() || cap(b) == 0 {
		return
	}
	p := unsafe.SliceData(b[:cap(b)])
	detMu.Lock()
	if detPooled != nil {
		delete(detPooled, p)
	}
	if debugDetector {
		if detLeased == nil {
			detLeased = make(map[*byte]struct{})
		}
		detLeased[p] = struct{}{}
	}
	detMu.Unlock()
}

func detectorPut(b []byte) {
	if !detectorOn() || cap(b) == 0 {
		return
	}
	p := unsafe.SliceData(b[:cap(b)])
	detMu.Lock()
	if detPooled == nil {
		detPooled = make(map[*byte]struct{})
	}
	if _, dup := detPooled[p]; dup {
		detMu.Unlock()
		panic(fmt.Sprintf("mem: double free of %d-byte buffer %p", cap(b), p))
	}
	detPooled[p] = struct{}{}
	if detLeased != nil {
		delete(detLeased, p)
	}
	detMu.Unlock()
}

// Poison patterns written over every released buffer in
// SLINGSHOT_POOL=debug mode. They are fixed, so a component that reads a
// buffer after giving it back sees the same garbage on every run: a
// stale-alias bug shows up as a deterministic wrong report rather than as
// pool-order nondeterminism.
const (
	poisonByte = 0xA5
	poisonBits = 0xA5A5A5A5A5A5A5A5
)

// poisonIQ is the sample value written over released IQ buffers.
var poisonIQ = complex(math.Float64frombits(poisonBits), math.Float64frombits(poisonBits))

func poisonBytes(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = poisonByte
	}
}

func poisonComplex(b []complex128) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = poisonIQ
	}
}

// LeakedLeases reports the number of leased-but-never-recycled buffers in
// SLINGSHOT_POOL=debug mode, or -1 when leak tracking is not armed.
func LeakedLeases() int {
	if !debugDetector {
		return -1
	}
	detMu.Lock()
	defer detMu.Unlock()
	return len(detLeased)
}
