package ue

import (
	"slices"
	"sort"

	"slingshot/internal/ckpt/wire"
	"slingshot/internal/fronthaul"
)

// SnapshotTo writes the UE's full state: RRC machine, radio channel, RNG
// point, RLC bearers, both HARQ directions, and the grant/assignment
// lookahead maps in sorted-slot order. Parked HARQ TX buffers fold in as
// digests so pool-leased memory is never retained.
func (u *UE) SnapshotTo(w *wire.W) {
	s := &u.Stats
	w.U64(s.ULBlocksSent)
	w.U64(s.DLBlocksOK)
	w.U64(s.DLBlocksFail)
	w.U64(s.RLFs)
	w.U64(s.Attaches)
	w.U64(s.PacketsUp)
	w.U64(s.PacketsDown)
	w.U64(s.BytesDelivered)
	w.U8(uint8(u.state))
	w.I64(int64(u.lastSync))
	w.Bool(u.everSynced)
	w.U64(u.lastAdvSlot)
	w.I64(int64(u.gapSince))
	for _, v := range u.rng.State() {
		w.U64(v)
	}
	u.Channel.SnapshotTo(w)
	u.cqi.SnapshotTo(w)
	u.ulTx.SnapshotTo(w)
	u.dlRx.SnapshotTo(w)
	u.harqDL.SnapshotTo(w)

	procs := make([]int, 0, len(u.harqTx))
	for p := range u.harqTx {
		procs = append(procs, int(p))
	}
	sort.Ints(procs)
	w.U32(uint32(len(procs)))
	for _, p := range procs {
		tb := u.harqTx[uint8(p)]
		w.U8(uint8(p))
		w.U32(uint32(len(tb)))
		w.U64(wire.Hash64(tb))
	}

	grantSlots := make([]uint64, 0, len(u.grants))
	for slot := range u.grants {
		grantSlots = append(grantSlots, slot)
	}
	sort.Slice(grantSlots, func(i, j int) bool { return grantSlots[i] < grantSlots[j] })
	w.U32(uint32(len(grantSlots)))
	for _, slot := range grantSlots {
		w.U64(slot)
		snapSection(w, u.grants[slot])
	}

	// DL assignments group by slot in ascending order, arrival order
	// within a slot.
	var assigSlots []uint64
	for _, sec := range u.dlAssig {
		assigSlots = append(assigSlots, sec.GrantSlot)
	}
	slices.Sort(assigSlots)
	assigSlots = slices.Compact(assigSlots)
	w.U32(uint32(len(assigSlots)))
	for _, slot := range assigSlots {
		w.U64(slot)
		n := 0
		for _, sec := range u.dlAssig {
			if sec.GrantSlot == slot {
				n++
			}
		}
		w.U32(uint32(n))
		for _, sec := range u.dlAssig {
			if sec.GrantSlot == slot {
				snapSection(w, sec)
			}
		}
	}

	w.U32(uint32(len(u.uciQ)))
	for _, uci := range u.uciQ {
		w.U16(uci.UEID)
		w.U8(uci.HARQID)
		w.Bool(uci.HasFeedback)
		w.Bool(uci.ACK)
		w.F64(float64(uci.CQIdB))
	}
}

func snapSection(w *wire.W, s fronthaul.Section) {
	w.U16(s.UEID)
	w.U8(uint8(s.Dir))
	w.U16(s.StartPRB)
	w.U16(s.NumPRB)
	w.U8(s.ModBits)
	w.U8(s.HARQID)
	w.U8(s.Rv)
	w.Bool(s.NewData)
	w.U32(s.TBBytes)
	w.U64(s.GrantSlot)
}
