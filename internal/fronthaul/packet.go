package fronthaul

import (
	"encoding/binary"
	"errors"
	"fmt"

	"slingshot/internal/mem"
)

// MessageType is the eCPRI message type of a fronthaul packet.
type MessageType uint8

// eCPRI message types used by O-RAN fronthaul.
const (
	MsgIQData    MessageType = 0 // U-plane: IQ samples
	MsgRTControl MessageType = 2 // C-plane: realtime control
)

func (m MessageType) String() string {
	switch m {
	case MsgIQData:
		return "U-plane"
	case MsgRTControl:
		return "C-plane"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(m))
	}
}

// Errors returned by the decoder.
var (
	ErrShortPacket = errors.New("fronthaul: packet too short")
	ErrBadVersion  = errors.New("fronthaul: unsupported eCPRI version")
	ErrBadSlot     = errors.New("fronthaul: slot fields out of range")
)

// Packet is a decoded fronthaul packet. One C-plane packet describes the
// slot's sections; U-plane packets carry the BFP-compressed IQ payload for
// a PRB range.
//
// Wire layout (big endian):
//
//	byte 0      : eCPRI version (high nibble) | msgType (low nibble is
//	              enough for our two types)
//	bytes 1-2   : payload length
//	bytes 3-4   : eAxC id (RU port id; carries the RU's logical identity)
//	byte 5      : sequence id
//	byte 6      : direction (bit 7) | frame low bit unused
//	byte 7      : frame
//	byte 8      : subframe (high nibble) | slot (low nibble+... 6 bits)
//	byte 9      : startSymbol (we emit per-slot packets, so 0)
//	bytes 10-11 : sectionID
//	bytes 12-13 : startPRB
//	bytes 14-15 : numPRB
//	byte 16     : mantissa bits (U-plane) / section count (C-plane)
//	bytes 17-20 : aux length
//	bytes 21+   : payload (BFP IQ for U-plane, section descriptors for C),
//	              then aux bytes
type Packet struct {
	Version  uint8
	Type     MessageType
	EAxC     uint16
	Seq      uint8
	Dir      Direction
	Slot     SlotID
	Section  uint16
	StartPRB uint16
	NumPRB   uint16
	// MantissaBits is the BFP width for U-plane payloads; for C-plane
	// packets the field carries the section count.
	MantissaBits uint8
	Payload      []byte
	// Aux carries simulation-sidecar bytes (the transport-block payload
	// represented by the sampled code block in the IQ). A real fronthaul
	// encodes all bits in IQ; the sampled-fidelity PHY carries the
	// remainder here so end-to-end data flows byte-exactly. See DESIGN.md.
	Aux []byte
}

// CurrentVersion is the eCPRI protocol version we emit.
const CurrentVersion = 1

// headerLen is the fixed header size before the payload.
const headerLen = 21

// WireLen returns the packet's serialized size.
func (p *Packet) WireLen() int { return headerLen + len(p.Payload) + len(p.Aux) }

// Serialize encodes the packet to wire format in a fresh buffer.
func (p *Packet) Serialize() []byte {
	return p.SerializeInto(make([]byte, p.WireLen()))
}

// SerializePooled encodes the packet into a wire buffer leased from
// internal/mem. Ownership transfers to the caller (typically straight
// into a Frame.Payload, whose terminal receiver returns it); with pooling
// disabled this is exactly Serialize.
func (p *Packet) SerializePooled() []byte {
	n := p.WireLen()
	return p.SerializeInto(mem.GetBytesCap(n)[:n])
}

// SerializeInto encodes the packet into out, which must be exactly
// WireLen() bytes, and returns it.
func (p *Packet) SerializeInto(out []byte) []byte {
	out[0] = p.Version<<4 | uint8(p.Type)&0x0F
	binary.BigEndian.PutUint16(out[1:3], uint16(len(p.Payload)))
	binary.BigEndian.PutUint16(out[3:5], p.EAxC)
	out[5] = p.Seq
	// Write every header byte unconditionally: the buffer may be a pooled
	// lease carrying a previous packet's bytes, not a zeroed allocation.
	out[6] = 0
	if p.Dir == Downlink {
		out[6] = 0x80
	}
	out[7] = p.Slot.Frame
	out[8] = p.Slot.Subframe<<4 | p.Slot.Slot&0x0F
	out[9] = 0
	binary.BigEndian.PutUint16(out[10:12], p.Section)
	binary.BigEndian.PutUint16(out[12:14], p.StartPRB)
	binary.BigEndian.PutUint16(out[14:16], p.NumPRB)
	out[16] = p.MantissaBits
	binary.BigEndian.PutUint32(out[17:21], uint32(len(p.Aux)))
	copy(out[headerLen:], p.Payload)
	copy(out[headerLen+len(p.Payload):], p.Aux)
	return out
}

// TraceArgs packs the packet's identity into the two scalar arguments of
// a trace event (kinds fh-tx / fh-rx): a carries the wrapped slot index,
// message type and sequence id; b the on-wire byte count. Keeping the
// packing next to the wire format means every emission site across phy,
// ru and chaos renders identically in the timeline.
func (p *Packet) TraceArgs() (a, b uint64) {
	a = uint64(p.Slot.Index())&0xFFFF |
		uint64(p.Type&0xF)<<16 |
		uint64(p.Seq)<<24
	b = uint64(headerLen + len(p.Payload) + len(p.Aux))
	return a, b
}

// Decode parses a wire-format packet. The payload slice aliases data
// (zero-copy); callers that retain it past the frame's lifetime must copy.
func Decode(data []byte) (*Packet, error) {
	p := new(Packet)
	if err := DecodeInto(p, data); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto is Decode into a caller-owned packet, so a receiver that
// handles one frame at a time can reuse one Packet for every frame. Every
// field is overwritten on success; on error p's contents are unspecified.
// Payload and Aux alias data, as with Decode.
func DecodeInto(p *Packet, data []byte) error {
	if len(data) < headerLen {
		return ErrShortPacket
	}
	if data[0]>>4 != CurrentVersion {
		return ErrBadVersion
	}
	plen := int(binary.BigEndian.Uint16(data[1:3]))
	alen := int(binary.BigEndian.Uint32(data[17:21]))
	if len(data) < headerLen+plen+alen {
		return ErrShortPacket
	}
	slot := SlotID{Frame: data[7], Subframe: data[8] >> 4, Slot: data[8] & 0x0F}
	if !slot.Valid() {
		return ErrBadSlot
	}
	dir := Uplink
	if data[6]&0x80 != 0 {
		dir = Downlink
	}
	*p = Packet{
		Version:      CurrentVersion,
		Type:         MessageType(data[0] & 0x0F),
		EAxC:         binary.BigEndian.Uint16(data[3:5]),
		Seq:          data[5],
		Dir:          dir,
		Slot:         slot,
		Section:      binary.BigEndian.Uint16(data[10:12]),
		StartPRB:     binary.BigEndian.Uint16(data[12:14]),
		NumPRB:       binary.BigEndian.Uint16(data[14:16]),
		MantissaBits: data[16],
		Payload:      data[headerLen : headerLen+plen],
		Aux:          data[headerLen+plen : headerLen+plen+alen],
	}
	return nil
}

// PeekSlot extracts only the slot identifier and direction from a
// wire-format packet without a full decode — this mirrors what the switch
// dataplane parser does (it never touches the IQ payload).
func PeekSlot(data []byte) (SlotID, Direction, bool) {
	if len(data) < headerLen {
		return SlotID{}, Uplink, false
	}
	dir := Uplink
	if data[6]&0x80 != 0 {
		dir = Downlink
	}
	s := SlotID{Frame: data[7], Subframe: data[8] >> 4, Slot: data[8] & 0x0F}
	return s, dir, s.Valid()
}

// PeekEAxC extracts the eAxC (RU port) identifier the way the switch
// parser does.
func PeekEAxC(data []byte) (uint16, bool) {
	if len(data) < headerLen {
		return 0, false
	}
	return binary.BigEndian.Uint16(data[3:5]), true
}

// PeekType extracts the message type.
func PeekType(data []byte) (MessageType, bool) {
	if len(data) < 1 {
		return 0, false
	}
	return MessageType(data[0] & 0x0F), true
}

// packetPool recycles locally built transmit packets. Packets returned by
// Decode are NOT pooled: their Payload/Aux alias the received frame, so
// their lifetime belongs to the frame's owner.
var packetPool = mem.NewPool[Packet](func(p *Packet) { *p = Packet{} })

// Recycle returns a locally built packet's struct to the free list. Call it
// only after Serialize has copied the packet to the wire and only for
// packets from NewControl/NewUplinkIQ/NewDownlinkIQ; Payload and Aux are
// not recycled here (mem.PutBytes an owned Payload first, never Aux you do
// not own).
func (p *Packet) Recycle() { packetPool.Put(p) }

// NewUplinkIQ builds a U-plane uplink packet carrying IQ samples for a PRB
// range, compressing with the given mantissa width. The payload is built in
// a recycled buffer; senders that serialize immediately may Recycle the
// packet and mem.PutBytes its payload.
func NewUplinkIQ(eaxc uint16, seq uint8, slot SlotID, startPRB, numPRB uint16, iq []complex128, mantissaBits int) (*Packet, error) {
	if len(iq)%12 != 0 || mantissaBits < 2 || mantissaBits > 16 {
		// Let the encoder produce the error before any buffer is leased.
		if _, err := AppendCompressBFP(nil, iq, mantissaBits); err != nil {
			return nil, err
		}
	}
	payload, err := AppendCompressBFP(
		mem.GetBytesCap(len(iq)/12*BFPBlockBytes(mantissaBits)), iq, mantissaBits)
	if err != nil {
		return nil, err
	}
	p := packetPool.Get()
	p.Version, p.Type, p.EAxC, p.Seq = CurrentVersion, MsgIQData, eaxc, seq
	p.Dir, p.Slot, p.StartPRB, p.NumPRB = Uplink, slot, startPRB, numPRB
	p.MantissaBits, p.Payload = uint8(mantissaBits), payload
	return p, nil
}

// NewDownlinkIQ builds a U-plane downlink packet.
func NewDownlinkIQ(eaxc uint16, seq uint8, slot SlotID, startPRB, numPRB uint16, iq []complex128, mantissaBits int) (*Packet, error) {
	p, err := NewUplinkIQ(eaxc, seq, slot, startPRB, numPRB, iq, mantissaBits)
	if err != nil {
		return nil, err
	}
	p.Dir = Downlink
	return p, nil
}

// NewControl builds a C-plane packet for the slot. A healthy PHY emits one
// downlink C-plane packet per slot; Slingshot's failure detector treats
// the stream as a natural heartbeat.
func NewControl(eaxc uint16, seq uint8, dir Direction, slot SlotID, sections uint8) *Packet {
	p := packetPool.Get()
	p.Version, p.Type, p.EAxC, p.Seq = CurrentVersion, MsgRTControl, eaxc, seq
	p.Dir, p.Slot, p.MantissaBits = dir, slot, sections
	return p
}

// IQ decodes the packet's payload into complex samples. Only valid for
// U-plane packets.
func (p *Packet) IQ() ([]complex128, error) {
	return p.AppendIQ(nil)
}

// AppendIQ is IQ appending into dst (pass a recycled buffer's [:0] to
// decode a packet without allocating).
func (p *Packet) AppendIQ(dst []complex128) ([]complex128, error) {
	if p.Type != MsgIQData {
		return nil, fmt.Errorf("fronthaul: IQ() on %v packet", p.Type)
	}
	return AppendDecompressBFP(dst, p.Payload, int(p.MantissaBits))
}
