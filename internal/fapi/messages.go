package fapi

import (
	"encoding/binary"

	"slingshot/internal/mem"
)

// ConfigRequest initializes PHY processing for a cell (== RU). The L2
// sends it when onboarding a new RU; Orion duplicates it to provision both
// the primary and the secondary PHY (§6.3).
type ConfigRequest struct {
	CellID uint16
	// NumPRB is the carrier bandwidth in PRBs.
	NumPRB uint16
	// MantissaBits selects the fronthaul BFP width.
	MantissaBits uint8
	// FECIters is the PHY decoder's iteration budget. The live-upgrade
	// experiment (Fig 11) deploys a secondary PHY with a larger budget.
	FECIters uint8
	// Seed derives the cell's scrambling/pilot sequences.
	Seed uint64
}

func (m *ConfigRequest) Kind() Kind      { return KindConfigRequest }
func (m *ConfigRequest) Cell() uint16    { return m.CellID }
func (m *ConfigRequest) AbsSlot() uint64 { return 0 }

func (m *ConfigRequest) encodeBody(b []byte) []byte {
	var buf [14]byte
	binary.BigEndian.PutUint16(buf[0:2], m.NumPRB)
	buf[2] = m.MantissaBits
	buf[3] = m.FECIters
	binary.BigEndian.PutUint64(buf[4:12], m.Seed)
	return append(b, buf[:]...)
}

func (m *ConfigRequest) bodySize() int { return 14 }

func (m *ConfigRequest) decodeBody(b []byte) error {
	if len(b) < 14 {
		return ErrTruncated
	}
	m.NumPRB = binary.BigEndian.Uint16(b[0:2])
	m.MantissaBits = b[2]
	m.FECIters = b[3]
	m.Seed = binary.BigEndian.Uint64(b[4:12])
	return nil
}

// ConfigResponse acknowledges a ConfigRequest.
type ConfigResponse struct {
	CellID uint16
	OK     bool
}

func (m *ConfigResponse) Kind() Kind      { return KindConfigResponse }
func (m *ConfigResponse) Cell() uint16    { return m.CellID }
func (m *ConfigResponse) AbsSlot() uint64 { return 0 }

func (m *ConfigResponse) encodeBody(b []byte) []byte {
	v := byte(0)
	if m.OK {
		v = 1
	}
	return append(b, v)
}

func (m *ConfigResponse) bodySize() int { return 1 }

func (m *ConfigResponse) decodeBody(b []byte) error {
	if len(b) < 1 {
		return ErrTruncated
	}
	m.OK = b[0] == 1
	return nil
}

// StartRequest starts slot processing for a configured cell.
type StartRequest struct{ CellID uint16 }

func (m *StartRequest) Kind() Kind                 { return KindStartRequest }
func (m *StartRequest) Cell() uint16               { return m.CellID }
func (m *StartRequest) AbsSlot() uint64            { return 0 }
func (m *StartRequest) encodeBody(b []byte) []byte { return b }
func (m *StartRequest) decodeBody([]byte) error    { return nil }
func (m *StartRequest) bodySize() int              { return 0 }

// StopRequest stops slot processing for a cell.
type StopRequest struct{ CellID uint16 }

func (m *StopRequest) Kind() Kind                 { return KindStopRequest }
func (m *StopRequest) Cell() uint16               { return m.CellID }
func (m *StopRequest) AbsSlot() uint64            { return 0 }
func (m *StopRequest) encodeBody(b []byte) []byte { return b }
func (m *StopRequest) decodeBody([]byte) error    { return nil }
func (m *StopRequest) bodySize() int              { return 0 }

// SlotIndication is the PHY's per-slot tick to the L2.
type SlotIndication struct {
	CellID uint16
	Slot   uint64
}

func (m *SlotIndication) Kind() Kind                 { return KindSlotIndication }
func (m *SlotIndication) Cell() uint16               { return m.CellID }
func (m *SlotIndication) AbsSlot() uint64            { return m.Slot }
func (m *SlotIndication) encodeBody(b []byte) []byte { return b }
func (m *SlotIndication) decodeBody([]byte) error    { return nil }
func (m *SlotIndication) bodySize() int              { return 0 }

// DLConfig is the per-slot downlink work request. A request with zero PDUs
// is a valid "null" request: the PHY stays protocol-alive but does no
// signal processing for the slot.
type DLConfig struct {
	CellID uint16
	Slot   uint64
	PDUs   []PDU
}

func (m *DLConfig) Kind() Kind      { return KindDLConfig }
func (m *DLConfig) Cell() uint16    { return m.CellID }
func (m *DLConfig) AbsSlot() uint64 { return m.Slot }

// Null reports whether the request carries no work.
func (m *DLConfig) Null() bool { return len(m.PDUs) == 0 }

func (m *DLConfig) encodeBody(b []byte) []byte { return encodePDUs(b, m.PDUs) }
func (m *DLConfig) bodySize() int              { return 2 + len(m.PDUs)*pduWire }
func (m *DLConfig) decodeBody(b []byte) error {
	pdus, err := decodePDUsInto(m.PDUs[:0], b)
	m.PDUs = pdus
	return err
}

// ULConfig is the per-slot uplink work request; zero PDUs = null request.
type ULConfig struct {
	CellID uint16
	Slot   uint64
	PDUs   []PDU
}

func (m *ULConfig) Kind() Kind      { return KindULConfig }
func (m *ULConfig) Cell() uint16    { return m.CellID }
func (m *ULConfig) AbsSlot() uint64 { return m.Slot }

// Null reports whether the request carries no work.
func (m *ULConfig) Null() bool { return len(m.PDUs) == 0 }

func (m *ULConfig) encodeBody(b []byte) []byte { return encodePDUs(b, m.PDUs) }
func (m *ULConfig) bodySize() int              { return 2 + len(m.PDUs)*pduWire }
func (m *ULConfig) decodeBody(b []byte) error {
	pdus, err := decodePDUsInto(m.PDUs[:0], b)
	m.PDUs = pdus
	return err
}

func encodePDUs(b []byte, pdus []PDU) []byte {
	var n [2]byte
	binary.BigEndian.PutUint16(n[:], uint16(len(pdus)))
	b = append(b, n[:]...)
	for i := range pdus {
		b = pdus[i].encode(b)
	}
	return b
}

// decodePDUsInto appends the decoded PDUs to dst, reusing its capacity
// (pooled messages start with pduCap). A zero-PDU body returns dst
// unchanged.
func decodePDUsInto(dst []PDU, b []byte) ([]PDU, error) {
	if len(b) < 2 {
		return nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	var err error
	for i := 0; i < n; i++ {
		var p PDU
		if b, err = p.decode(b); err != nil {
			return nil, err
		}
		dst = append(dst, p)
	}
	return dst, nil
}

// TxData carries downlink transport-block payloads matching a DLConfig.
type TxData struct {
	CellID   uint16
	Slot     uint64
	Payloads []TBPayload
}

func (m *TxData) Kind() Kind      { return KindTxData }
func (m *TxData) Cell() uint16    { return m.CellID }
func (m *TxData) AbsSlot() uint64 { return m.Slot }

func (m *TxData) encodeBody(b []byte) []byte { return encodePayloads(b, m.Payloads) }
func (m *TxData) bodySize() int              { return payloadsWire(m.Payloads) }
func (m *TxData) decodeBody(b []byte) error {
	ps, err := decodePayloadsInto(m.Payloads[:0], b)
	m.Payloads = ps
	return err
}

// RxData carries uplink transport blocks the PHY decoded successfully.
type RxData struct {
	CellID   uint16
	Slot     uint64
	Payloads []TBPayload
}

func (m *RxData) Kind() Kind      { return KindRxData }
func (m *RxData) Cell() uint16    { return m.CellID }
func (m *RxData) AbsSlot() uint64 { return m.Slot }

func (m *RxData) encodeBody(b []byte) []byte { return encodePayloads(b, m.Payloads) }
func (m *RxData) bodySize() int              { return payloadsWire(m.Payloads) }
func (m *RxData) decodeBody(b []byte) error {
	ps, err := decodePayloadsInto(m.Payloads[:0], b)
	m.Payloads = ps
	return err
}

func encodePayloads(b []byte, ps []TBPayload) []byte {
	var n [2]byte
	binary.BigEndian.PutUint16(n[:], uint16(len(ps)))
	b = append(b, n[:]...)
	for _, p := range ps {
		var h [7]byte
		binary.BigEndian.PutUint16(h[0:2], p.UEID)
		h[2] = p.HARQID
		binary.BigEndian.PutUint32(h[3:7], uint32(len(p.Data)))
		b = append(b, h[:]...)
		b = append(b, p.Data...)
	}
	return b
}

func payloadsWire(ps []TBPayload) int {
	n := 2
	for i := range ps {
		n += 7 + len(ps[i].Data)
	}
	return n
}

// decodePayloadsInto appends decoded payloads to dst. Data is copied out
// of the wire buffer into leased mem buffers, so the decoded message owns
// its payloads and a ReleaseDeep recycles them.
func decodePayloadsInto(dst []TBPayload, b []byte) ([]TBPayload, error) {
	if len(b) < 2 {
		return nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	for i := 0; i < n; i++ {
		if len(b) < 7 {
			return nil, ErrTruncated
		}
		var p TBPayload
		p.UEID = binary.BigEndian.Uint16(b[0:2])
		p.HARQID = b[2]
		dlen := int(binary.BigEndian.Uint32(b[3:7]))
		b = b[7:]
		if len(b) < dlen {
			return nil, ErrTruncated
		}
		p.Data = append(mem.GetBytesCap(dlen), b[:dlen]...)
		b = b[dlen:]
		dst = append(dst, p)
	}
	return dst, nil
}

// CRCIndication reports per-UE uplink decode outcomes for a slot.
type CRCIndication struct {
	CellID  uint16
	Slot    uint64
	Results []CRCResult
}

func (m *CRCIndication) Kind() Kind      { return KindCRCIndication }
func (m *CRCIndication) Cell() uint16    { return m.CellID }
func (m *CRCIndication) AbsSlot() uint64 { return m.Slot }

func (m *CRCIndication) encodeBody(b []byte) []byte {
	var n [2]byte
	binary.BigEndian.PutUint16(n[:], uint16(len(m.Results)))
	b = append(b, n[:]...)
	for _, r := range m.Results {
		var buf [8]byte
		binary.BigEndian.PutUint16(buf[0:2], r.UEID)
		buf[2] = r.HARQID
		if r.OK {
			buf[3] = 1
		}
		binary.BigEndian.PutUint32(buf[4:8], uint32(int32(r.SNRdB*256)))
		b = append(b, buf[:]...)
	}
	return b
}

func (m *CRCIndication) bodySize() int { return 2 + len(m.Results)*8 }

func (m *CRCIndication) decodeBody(b []byte) error {
	if len(b) < 2 {
		return ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	if n == 0 {
		return nil
	}
	dst := m.Results[:0]
	for i := 0; i < n; i++ {
		if len(b) < 8 {
			return ErrTruncated
		}
		dst = append(dst, CRCResult{
			UEID:   binary.BigEndian.Uint16(b[0:2]),
			HARQID: b[2],
			OK:     b[3] == 1,
			SNRdB:  float32(int32(binary.BigEndian.Uint32(b[4:8]))) / 256,
		})
		b = b[8:]
	}
	m.Results = dst
	return nil
}

// ErrorIndication reports a PHY-side protocol error (e.g. missing
// UL_CONFIG for a slot — the condition that crashes FlexRAN per §6.2).
type ErrorIndication struct {
	CellID uint16
	Slot   uint64
	Code   uint8
}

// Error codes.
const (
	ErrCodeMissingConfig uint8 = 1 // no UL/DL_CONFIG arrived for a slot
	ErrCodeBadRequest    uint8 = 2 // malformed or out-of-order request
)

func (m *ErrorIndication) Kind() Kind      { return KindErrorIndication }
func (m *ErrorIndication) Cell() uint16    { return m.CellID }
func (m *ErrorIndication) AbsSlot() uint64 { return m.Slot }

func (m *ErrorIndication) encodeBody(b []byte) []byte { return append(b, m.Code) }
func (m *ErrorIndication) bodySize() int              { return 1 }
func (m *ErrorIndication) decodeBody(b []byte) error {
	if len(b) < 1 {
		return ErrTruncated
	}
	m.Code = b[0]
	return nil
}

// NullUL returns a null UL_CONFIG for the slot.
func NullUL(cell uint16, slot uint64) *ULConfig {
	return &ULConfig{CellID: cell, Slot: slot}
}

// NullDL returns a null DL_CONFIG for the slot.
func NullDL(cell uint16, slot uint64) *DLConfig {
	return &DLConfig{CellID: cell, Slot: slot}
}
