// Package rlc implements the Radio Link Control sublayer used by the L2
// and the UE: segmentation of upper-layer packets into transport-block
// sized PDUs, and in-order reassembly with a reordering window tolerant of
// HARQ-induced out-of-order delivery.
//
// We implement RLC Unacknowledged Mode (UM): sequence-numbered PDUs,
// reordering, and a reassembly timeout that discards stuck gaps. End-to-end
// reliability in the experiments comes from MAC HARQ retransmissions plus
// the transport layer (TCP), mirroring how the paper's impairments surface
// to applications. (See DESIGN.md for this AM→UM substitution note.)
package rlc

import (
	"encoding/binary"
	"errors"

	"slingshot/internal/mem"
	"slingshot/internal/trace"
)

// PDU layout: sn(2) | nSegs(2) | segments...
// Segment: flags(1) | len(2) | bytes. Flags bit0 = first fragment of a
// packet, bit1 = last fragment.
const (
	pduHeader = 4
	segHeader = 3

	flagFirst = 0x1
	flagLast  = 0x2
)

// ErrMalformed reports an undecodable PDU.
var ErrMalformed = errors.New("rlc: malformed PDU")

// Tx segments enqueued packets into PDUs.
type Tx struct {
	queue  [][]byte
	offset int // bytes of queue[0] already sent
	nextSN uint16
	// Queued tracks the backlog in bytes for scheduler buffer status.
	Queued int
}

// NewTx returns an empty transmitter.
func NewTx() *Tx { return &Tx{} }

// Enqueue adds an upper-layer packet to the backlog.
func (t *Tx) Enqueue(pkt []byte) {
	if len(pkt) == 0 {
		return
	}
	t.queue = append(t.queue, pkt)
	t.Queued += len(pkt)
}

// Backlog returns the queued byte count.
func (t *Tx) Backlog() int { return t.Queued }

// QueueLen returns the number of queued (possibly partially-sent) packets.
func (t *Tx) QueueLen() int { return len(t.queue) }

// BuildPDU emits the next PDU of at most maxBytes, consuming backlog.
// It returns a PDU even when the backlog is empty (a padding PDU with zero
// segments) so MAC grants are always fillable. maxBytes below the minimum
// header still yields a padding PDU.
func (t *Tx) BuildPDU(maxBytes int) []byte {
	return t.AppendPDU(make([]byte, 0, maxInt(maxBytes, pduHeader)), maxBytes)
}

// AppendPDU is BuildPDU appending into dst (pass a recycled buffer to build
// a PDU without allocating). maxBytes bounds the PDU itself, not dst's
// prior contents.
func (t *Tx) AppendPDU(dst []byte, maxBytes int) []byte {
	base := len(dst)
	var hdr4 [pduHeader]byte
	binary.BigEndian.PutUint16(hdr4[0:2], t.nextSN)
	dst = append(dst, hdr4[:]...)
	t.nextSN++
	nSegs := 0
	for len(t.queue) > 0 {
		room := maxBytes - (len(dst) - base) - segHeader
		if room <= 0 {
			break
		}
		pkt := t.queue[0]
		remaining := len(pkt) - t.offset
		take := remaining
		if take > room {
			take = room
		}
		flags := byte(0)
		if t.offset == 0 {
			flags |= flagFirst
		}
		if take == remaining {
			flags |= flagLast
		}
		var hdr [segHeader]byte
		hdr[0] = flags
		binary.BigEndian.PutUint16(hdr[1:3], uint16(take))
		dst = append(dst, hdr[:]...)
		dst = append(dst, pkt[t.offset:t.offset+take]...)
		t.Queued -= take
		nSegs++
		if take == remaining {
			t.queue = t.queue[1:]
			t.offset = 0
		} else {
			t.offset += take
			break // PDU is full
		}
	}
	binary.BigEndian.PutUint16(dst[base+2:base+4], uint16(nSegs))
	return dst
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Rx reassembles PDUs into upper-layer packets, reordering by sequence
// number within a window.
type Rx struct {
	// WindowSize bounds how far ahead of the earliest gap we buffer.
	WindowSize uint16

	// expected starts at 0: every Rx pairs with a fresh Tx whose first
	// PDU carries SN 0, so even an out-of-order start reorders correctly.
	expected uint16
	pending  map[uint16][]byte

	// partial accumulates fragments of the packet currently being
	// reassembled across in-order PDUs.
	partial []byte
	inPkt   bool

	// out is the delivered-packet list Ingest and SkipGap return, reused
	// across calls.
	out [][]byte

	// Delivered and Discarded count packets for loss accounting.
	Delivered uint64
	Discarded uint64

	// Trace, when non-nil, records each discard; Cell and UE locate this
	// receiver in the cross-layer timeline. The owning L2 sets all three at
	// UE attach. Ingest runs only on the event-loop goroutine.
	Trace    *trace.Recorder
	Cell, UE uint16
}

// discard counts one abandoned packet and records it.
func (r *Rx) discard() {
	r.Discarded++
	if r.Trace != nil {
		r.Trace.Emit(trace.KindRLCDiscard, 0, r.Cell, r.UE, 0, r.Discarded)
	}
}

// NewRx returns a receiver with the default 64-PDU reordering window.
func NewRx() *Rx {
	return &Rx{WindowSize: 64, pending: make(map[uint16][]byte)}
}

// Ingest processes one received PDU and returns any packets that complete
// in order. Duplicate and ancient PDUs are dropped. The returned list is
// the receiver's own storage, valid until its next Ingest or SkipGap; the
// packets in it belong to the caller.
func (r *Rx) Ingest(pdu []byte) ([][]byte, error) {
	if len(pdu) < pduHeader {
		return nil, ErrMalformed
	}
	sn := binary.BigEndian.Uint16(pdu[0:2])
	if diff := sn - r.expected; diff >= r.WindowSize {
		// Behind the window (duplicate/ancient) or absurdly far ahead.
		if int16(sn-r.expected) < 0 {
			return nil, nil // old duplicate; drop silently
		}
		// Far ahead: jump the window, discarding the gap.
		r.flushGapTo(sn)
	}
	// The buffered copy is pool-backed: every exit from the pending map
	// (drain, flushGapTo, duplicate overwrite below) recycles it.
	if old, dup := r.pending[sn]; dup {
		mem.PutBytes(old)
	}
	r.pending[sn] = append(mem.GetBytesCap(len(pdu)), pdu...)
	return r.drain()
}

// flushGapTo abandons all SNs before sn (reassembly timeout semantics).
func (r *Rx) flushGapTo(sn uint16) {
	for s := r.expected; s != sn; s++ {
		if pdu, ok := r.pending[s]; ok {
			mem.PutBytes(pdu)
			delete(r.pending, s)
		} else if r.inPkt {
			// A missing PDU kills any packet spanning it.
			r.discard()
			r.partial = nil
			r.inPkt = false
		}
	}
	r.expected = sn
}

// SkipGap abandons the current head-of-line gap, delivering what follows.
// Callers invoke this on a reassembly timer. The returned list follows
// Ingest's lifetime rule.
func (r *Rx) SkipGap() [][]byte {
	if _, ok := r.pending[r.expected]; ok {
		return nil
	}
	if len(r.pending) == 0 {
		return nil
	}
	// Find the nearest buffered SN after expected.
	best := r.expected
	bestDiff := uint16(0xFFFF)
	for s := range r.pending {
		if d := s - r.expected; d < bestDiff {
			bestDiff = d
			best = s
		}
	}
	r.flushGapTo(best)
	out, _ := r.drain()
	return out
}

// HasGap reports whether the receiver is stalled on a missing PDU.
func (r *Rx) HasGap() bool {
	_, ok := r.pending[r.expected]
	return !ok && len(r.pending) > 0
}

func (r *Rx) drain() ([][]byte, error) {
	clear(r.out)
	out := r.out[:0]
	var err error
	for {
		pdu, ok := r.pending[r.expected]
		if !ok {
			break
		}
		delete(r.pending, r.expected)
		r.expected++
		n := len(out)
		out, err = r.parse(out, pdu)
		// parse copied every segment it kept into r.partial, so the
		// buffered PDU is dead either way.
		mem.PutBytes(pdu)
		if err != nil {
			// A malformed PDU delivers none of its packets.
			out = out[:n]
			break
		}
	}
	r.out = out
	return out, err
}

// parse appends the packets pdu completes to out.
func (r *Rx) parse(out [][]byte, pdu []byte) ([][]byte, error) {
	nSegs := int(binary.BigEndian.Uint16(pdu[2:4]))
	body := pdu[pduHeader:]
	for i := 0; i < nSegs; i++ {
		if len(body) < segHeader {
			return out, ErrMalformed
		}
		flags := body[0]
		n := int(binary.BigEndian.Uint16(body[1:3]))
		body = body[segHeader:]
		if len(body) < n {
			return out, ErrMalformed
		}
		seg := body[:n]
		body = body[n:]

		if flags&flagFirst != 0 {
			if r.inPkt {
				// Previous packet never completed (lost tail).
				r.discard()
			}
			r.partial = nil
			r.inPkt = true
		}
		if !r.inPkt {
			// Continuation of a packet whose head was lost; count the
			// packet once, at its final fragment.
			if flags&flagLast != 0 {
				r.discard()
			}
			continue
		}
		r.partial = append(r.partial, seg...)
		if flags&flagLast != 0 {
			pkt := r.partial
			r.partial = nil
			r.inPkt = false
			r.Delivered++
			out = append(out, pkt)
		}
	}
	return out, nil
}

// Clone deep-copies the transmitter, for L2 checkpoint-restore migration
// (the paper's §10 direction: L2 layers have hard state that must be
// preserved, unlike the PHY's discardable soft state).
func (t *Tx) Clone() *Tx {
	c := &Tx{offset: t.offset, nextSN: t.nextSN, Queued: t.Queued}
	c.queue = make([][]byte, len(t.queue))
	for i, pkt := range t.queue {
		c.queue[i] = append([]byte(nil), pkt...)
	}
	return c
}

// Clone deep-copies the receiver.
func (r *Rx) Clone() *Rx {
	c := &Rx{
		WindowSize: r.WindowSize,
		expected:   r.expected,
		pending:    make(map[uint16][]byte, len(r.pending)),
		partial:    append([]byte(nil), r.partial...),
		inPkt:      r.inPkt,
		Delivered:  r.Delivered,
		Discarded:  r.Discarded,
		Trace:      r.Trace,
		Cell:       r.Cell,
		UE:         r.UE,
	}
	for sn, pdu := range r.pending {
		c.pending[sn] = append([]byte(nil), pdu...)
	}
	return c
}
