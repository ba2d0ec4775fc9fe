package fapi

import "slingshot/internal/mem"

// Typed free lists for the per-slot message kinds — every TTI creates a
// SLOT.indication, UL/DL_CONFIG, TX_DATA and (on the uplink return path)
// RX_DATA/CRC/UCI indications per cell, so these dominate steady-state
// message churn. Reset keeps element-slice capacity across reuse (decode
// and assembly append into it) while dropping Data pointers so the pool
// never pins payload buffers.
//
// Ownership contract (DESIGN.md §10):
//
//   - ReleaseShallow recycles the struct and its element slices but NOT
//     TBPayload.Data — for messages whose Data aliases storage the sender
//     still owns (L2's TX_DATA aliases the HARQ retransmission copy).
//   - ReleaseDeep additionally recycles each Data buffer — for messages
//     that own their payloads outright (anything built by Decode, and the
//     PHY's RX_DATA).
//   - Both are no-ops for message kinds that are not pooled, so callers
//     can release uniformly through the Message interface.
var (
	poolSlotInd = mem.NewPool[SlotIndication](func(m *SlotIndication) {
		*m = SlotIndication{}
	})
	poolULConfig = mem.NewPool[ULConfig](func(m *ULConfig) {
		*m = ULConfig{PDUs: m.PDUs[:0]}
	})
	poolDLConfig = mem.NewPool[DLConfig](func(m *DLConfig) {
		*m = DLConfig{PDUs: m.PDUs[:0]}
	})
	poolTxData = mem.NewPool[TxData](func(m *TxData) {
		*m = TxData{Payloads: resetPayloads(m.Payloads)}
	})
	poolRxData = mem.NewPool[RxData](func(m *RxData) {
		*m = RxData{Payloads: resetPayloads(m.Payloads)}
	})
	poolCRCInd = mem.NewPool[CRCIndication](func(m *CRCIndication) {
		*m = CRCIndication{Results: m.Results[:0]}
	})
	poolUCIInd = mem.NewPool[UCIIndication](func(m *UCIIndication) {
		*m = UCIIndication{Reports: m.Reports[:0]}
	})
)

func resetPayloads(ps []TBPayload) []TBPayload {
	for i := range ps {
		ps[i].Data = nil
	}
	return ps[:0]
}

// GetSlotIndication leases a SLOT.indication.
func GetSlotIndication(cell uint16, slot uint64) *SlotIndication {
	m := poolSlotInd.Get()
	m.CellID, m.Slot = cell, slot
	return m
}

// pduCap is the PDU capacity a fresh UL/DL_CONFIG struct starts with.
// Most slots are null configs, so a struct grown only on its first
// non-null use would leave most of the pool at zero capacity and make
// every scheduled slot pay for a growth; sizing at creation makes a warm
// pool allocation-free for cells of up to pduCap UEs.
const pduCap = 4

// GetULConfig leases a UL_CONFIG with zero PDUs (append to m.PDUs).
func GetULConfig(cell uint16, slot uint64) *ULConfig {
	m := poolULConfig.Get()
	m.CellID, m.Slot = cell, slot
	if m.PDUs == nil {
		m.PDUs = make([]PDU, 0, pduCap)
	}
	return m
}

// GetDLConfig leases a DL_CONFIG with zero PDUs.
func GetDLConfig(cell uint16, slot uint64) *DLConfig {
	m := poolDLConfig.Get()
	m.CellID, m.Slot = cell, slot
	if m.PDUs == nil {
		m.PDUs = make([]PDU, 0, pduCap)
	}
	return m
}

// GetTxData leases a TX_DATA with zero payloads.
func GetTxData(cell uint16, slot uint64) *TxData {
	m := poolTxData.Get()
	m.CellID, m.Slot = cell, slot
	return m
}

// GetRxData leases an RX_DATA with zero payloads.
func GetRxData(cell uint16, slot uint64) *RxData {
	m := poolRxData.Get()
	m.CellID, m.Slot = cell, slot
	return m
}

// GetCRCIndication leases a CRC.indication with zero results.
func GetCRCIndication(cell uint16, slot uint64) *CRCIndication {
	m := poolCRCInd.Get()
	m.CellID, m.Slot = cell, slot
	return m
}

// GetUCIIndication leases a UCI.indication with zero reports.
func GetUCIIndication(cell uint16, slot uint64) *UCIIndication {
	m := poolUCIInd.Get()
	m.CellID, m.Slot = cell, slot
	return m
}

func release(m Message, deep bool) {
	switch v := m.(type) {
	case *SlotIndication:
		poolSlotInd.Put(v)
	case *ULConfig:
		poolULConfig.Put(v)
	case *DLConfig:
		poolDLConfig.Put(v)
	case *TxData:
		if deep {
			for i := range v.Payloads {
				mem.PutBytes(v.Payloads[i].Data)
				v.Payloads[i].Data = nil
			}
		}
		poolTxData.Put(v)
	case *RxData:
		if deep {
			for i := range v.Payloads {
				mem.PutBytes(v.Payloads[i].Data)
				v.Payloads[i].Data = nil
			}
		}
		poolRxData.Put(v)
	case *CRCIndication:
		poolCRCInd.Put(v)
	case *UCIIndication:
		poolUCIInd.Put(v)
	}
}

// ReleaseShallow recycles a message struct and its element slices; payload
// Data buffers are left alone (the sender may still own them).
func ReleaseShallow(m Message) { release(m, false) }

// ReleaseDeep recycles a message including its payload Data buffers. Only
// legal when the releaser owns the message outright (e.g. it came from
// Decode) and no Data slice has been retained elsewhere.
func ReleaseDeep(m Message) { release(m, true) }
