package mem

import "testing"

func TestClassRoundTrip(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 1024, 4096, 354_000, 1 << 22} {
		c := classFor(n)
		if c < 0 {
			t.Fatalf("classFor(%d) out of range", n)
		}
		size := 1 << (minClassShift + c)
		if size < n {
			t.Fatalf("classFor(%d)=%d → capacity %d too small", n, c, size)
		}
		if classUnder(size) != c {
			t.Fatalf("classUnder(%d)=%d, want %d", size, classUnder(size), c)
		}
	}
	if classFor(1<<22+1) != -1 {
		t.Fatal("oversized request must not be pooled")
	}
	if classUnder(63) != -1 {
		t.Fatal("undersized buffer must be dropped, not pooled")
	}
}

// TestClassBoundaries pins the bits.Len size-class arithmetic at the
// edges of each rule: the smallest class absorbs every request up to 64,
// one past a power of two moves up a class, and the largest class ends
// at 4 MiB.
func TestClassBoundaries(t *testing.T) {
	top := numClasses - 1
	for _, tc := range []struct{ n, for_, under int }{
		{0, 0, -1},
		{1, 0, -1},
		{63, 0, -1},
		{64, 0, 0},
		{65, 1, 0},
		{1 << 22, top, top},
		{1<<22 + 1, -1, top},
	} {
		if got := classFor(tc.n); got != tc.for_ {
			t.Errorf("classFor(%d) = %d, want %d", tc.n, got, tc.for_)
		}
		if got := classUnder(tc.n); got != tc.under {
			t.Errorf("classUnder(%d) = %d, want %d", tc.n, got, tc.under)
		}
	}
}

// TestPoisonOnRelease checks the debug-mode contract: a released buffer's
// whole capacity reads back as the fixed poison pattern, so any stale
// alias sees the same bytes on every run.
func TestPoisonOnRelease(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	prevDebug := debugDetector
	debugDetector = true
	defer func() { debugDetector = prevDebug }()

	b := GetBytes(100)
	for i := range b {
		b[i] = byte(i)
	}
	alias := b[:cap(b)]
	PutBytes(b)
	for i, v := range alias {
		if v != poisonByte {
			t.Fatalf("byte %d after release = %#x, want poison %#x", i, v, poisonByte)
		}
	}
	_ = GetBytes(100) // take it back out so the detector maps stay balanced

	c := GetComplex(20)
	for i := range c {
		c[i] = complex(float64(i), 1)
	}
	calias := c[:cap(c)]
	PutComplex(c)
	for i, v := range calias {
		if v != poisonIQ {
			t.Fatalf("sample %d after release = %v, want poison", i, v)
		}
	}
	_ = GetComplex(20)
}

func TestBytesRecycle(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	b := GetBytes(100)
	if len(b) != 100 || cap(b) < 100 {
		t.Fatalf("GetBytes(100): len=%d cap=%d", len(b), cap(b))
	}
	PutBytes(b)
	c := GetBytes(80)
	if cap(c) != 128 {
		t.Fatalf("expected recycled 128-cap buffer, got cap=%d", cap(c))
	}
}

func TestDisabledIsPlainAlloc(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	b := GetBytes(100)
	PutBytes(b) // must be a no-op, not a recycle
	c := GetBytesCap(100)
	if len(c) != 0 || cap(c) < 100 {
		t.Fatalf("GetBytesCap off-mode: len=%d cap=%d", len(c), cap(c))
	}
}

func TestTypedPool(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	type thing struct{ n int }
	p := NewPool[thing](func(v *thing) { v.n = 0 })
	v := p.Get()
	v.n = 7
	p.Put(v)
	w := p.Get()
	if w.n != 0 {
		t.Fatalf("Reset not applied: n=%d", w.n)
	}
}

func TestDoubleFreePanicsUnderDetector(t *testing.T) {
	if !detectorOn() {
		t.Skip("detector not armed (needs -race or SLINGSHOT_POOL=debug)")
	}
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	b := GetBytes(256)
	PutBytes(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	PutBytes(b)
}

func TestAllocsSteadyState(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	if detectorOn() {
		t.Skip("detector maps allocate")
	}
	n := testing.AllocsPerRun(100, func() {
		b := GetBytes(512)
		PutBytes(b)
	})
	if n > 0 {
		t.Fatalf("Get/Put cycle allocates %v/op, want 0", n)
	}
}
