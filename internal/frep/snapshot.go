package frep

// Slab snapshots: a versioned, checksummed binary format that persists a
// Store's three slabs directly, so f-representations are built once and
// queried many times (the FDB engine treats them as the storage layer).
// It is the only on-disk encoding of a store: catalogues embed one per
// relation and view files one per view (package catalog). A snapshot is
// the arena itself:
//
//	header   64 bytes: magic, version, slab counts, payload length,
//	         CRC-32C of payload and of the header
//	nodes    nNodes × 16 bytes (valOff, kidOff, nVals, arity — LE u32)
//	kids     nKids × 4 bytes (LE u32 node ids), padded to 8
//	vals     nVals × 16-byte value records
//	heap     string bytes and nested vector records
//	ranks    nVals × 8 bytes (LE u64 prefix sums) — version 2 only,
//	         present iff header flag 0x1 is set (see ranks.go)
//
// A store without a ranked index encodes exactly as version 1 — byte
// for byte the pre-ranks format — so old readers and old files stay
// interchangeable with new ones; a store whose index covers it encodes
// as version 2 with the ranks section appended after the heap. Version
// 2 without the ranks flag is rejected, keeping encodings canonical
// (every accepted snapshot re-encodes to identical bytes).
//
// Every section starts 8-byte aligned relative to the snapshot start, so
// a loader that has the whole snapshot as one contiguous byte slice (one
// read, or an mmap) can reinterpret the node and kid slabs in place on
// little-endian machines and alias string payloads into the heap without
// copying. Value records are fixed width:
//
//	byte 0     kind (values.Kind)
//	bytes 1–3  reserved (zero)
//	bytes 4–8  aux  (LE u32): string byte length / vector arity
//	bytes 8–16 payload (LE u64): int/float bits, bool, or heap offset
//
// Vectors store their component records contiguously in the heap (8-byte
// aligned) and the payload is the heap offset of that block.
//
// Decoding is defensive end to end: a corrupt, truncated or
// version-skewed snapshot yields an error, never a panic, and a loaded
// store passes the same bounds guarantees as a built one (every node's
// ranges lie inside the slabs and every kid reference points strictly
// backwards).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"unsafe"

	"github.com/factordb/fdb/internal/values"
)

const (
	snapMagic = "FDBSNAP\n"
	// snapVersionV1 is the pre-ranks format (three sections); it is still
	// written for stores without a ranked index and always readable.
	snapVersionV1 = 1
	// snapVersion is the current format: version 2 adds the optional
	// ranks section, flagged by snapFlagRanks.
	snapVersion = 2
	// snapFlagRanks marks the presence of the ranks section; it is the
	// only defined flag, and exactly it must be set in a v2 header.
	snapFlagRanks = 0x1
	// snapHeaderLen is the fixed header size; sections follow immediately
	// and the header length is a multiple of 8, so in-file section offsets
	// keep their alignment relative to the snapshot start.
	snapHeaderLen = 64
	valRecLen     = 16
	nodeRecLen    = 16
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms that matter.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// hostLittle reports whether the host is little-endian; the in-place
// slab reinterpretation of LoadSnapshot is only valid there.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// snapHeader is the decoded fixed header of a snapshot.
type snapHeader struct {
	version    uint16
	flags      uint16
	nNodes     uint64
	nVals      uint64
	nKids      uint64
	heapLen    uint64
	payloadLen uint64
	payloadCRC uint32
}

// align8 rounds n up to the next multiple of 8.
func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// hasRanks reports whether the header declares a ranks section.
func (h *snapHeader) hasRanks() bool { return h.flags&snapFlagRanks != 0 }

// sectionLayout computes the payload-relative section offsets implied by
// the header counts, verifying they are consistent with payloadLen.
// ranksOff is meaningful only when the header declares a ranks section.
func (h *snapHeader) sectionLayout() (nodesOff, kidsOff, valsOff, heapOff, ranksOff uint64, err error) {
	const maxEntries = math.MaxUint32 // slabs are uint32-addressed
	if h.nNodes == 0 || h.nNodes > maxEntries || h.nVals > maxEntries || h.nKids > maxEntries {
		return 0, 0, 0, 0, 0, fmt.Errorf("frep: snapshot: implausible slab counts (%d nodes, %d vals, %d kids)", h.nNodes, h.nVals, h.nKids)
	}
	nodesOff = 0
	kidsOff = nodesOff + h.nNodes*nodeRecLen
	valsOff = align8(kidsOff + h.nKids*4)
	heapOff = valsOff + h.nVals*valRecLen
	want := align8(heapOff + h.heapLen)
	if h.hasRanks() {
		ranksOff = want
		want += h.nVals * 8 // ranksOff is 8-aligned, so want stays aligned
	}
	if want != h.payloadLen {
		return 0, 0, 0, 0, 0, fmt.Errorf("frep: snapshot: payload length %d inconsistent with slab counts (want %d)", h.payloadLen, want)
	}
	return nodesOff, kidsOff, valsOff, heapOff, ranksOff, nil
}

// encodeHeader writes the fixed header into b (which must be
// snapHeaderLen bytes).
func (h *snapHeader) encode(b []byte) {
	copy(b[0:8], snapMagic)
	binary.LittleEndian.PutUint16(b[8:10], h.version)
	binary.LittleEndian.PutUint16(b[10:12], h.flags)
	binary.LittleEndian.PutUint32(b[12:16], 0)
	binary.LittleEndian.PutUint64(b[16:24], h.nNodes)
	binary.LittleEndian.PutUint64(b[24:32], h.nVals)
	binary.LittleEndian.PutUint64(b[32:40], h.nKids)
	binary.LittleEndian.PutUint64(b[40:48], h.heapLen)
	binary.LittleEndian.PutUint64(b[48:56], h.payloadLen)
	binary.LittleEndian.PutUint32(b[56:60], h.payloadCRC)
	binary.LittleEndian.PutUint32(b[60:64], crc32.Checksum(b[0:60], crcTable))
}

// decodeSnapHeader parses and verifies the fixed header.
func decodeSnapHeader(b []byte) (*snapHeader, error) {
	if len(b) < snapHeaderLen {
		return nil, fmt.Errorf("frep: snapshot: truncated header (%d bytes)", len(b))
	}
	if string(b[0:8]) != snapMagic {
		return nil, fmt.Errorf("frep: snapshot: bad magic %q", b[0:8])
	}
	if got, want := binary.LittleEndian.Uint32(b[60:64]), crc32.Checksum(b[0:60], crcTable); got != want {
		return nil, fmt.Errorf("frep: snapshot: header checksum mismatch (got %#x, want %#x)", got, want)
	}
	h := &snapHeader{
		version:    binary.LittleEndian.Uint16(b[8:10]),
		flags:      binary.LittleEndian.Uint16(b[10:12]),
		nNodes:     binary.LittleEndian.Uint64(b[16:24]),
		nVals:      binary.LittleEndian.Uint64(b[24:32]),
		nKids:      binary.LittleEndian.Uint64(b[32:40]),
		heapLen:    binary.LittleEndian.Uint64(b[40:48]),
		payloadLen: binary.LittleEndian.Uint64(b[48:56]),
		payloadCRC: binary.LittleEndian.Uint32(b[56:60]),
	}
	switch h.version {
	case snapVersionV1:
		if h.flags != 0 {
			return nil, fmt.Errorf("frep: snapshot: unknown flags %#x for version 1", h.flags)
		}
	case snapVersion:
		// Version 2 exists only to carry the ranks section; requiring the
		// flag (and a non-empty value slab for it to rank) keeps every
		// accepted snapshot canonical under re-encoding.
		if h.flags != snapFlagRanks {
			return nil, fmt.Errorf("frep: snapshot: version 2 flags %#x, want %#x", h.flags, snapFlagRanks)
		}
		if h.nVals == 0 {
			return nil, fmt.Errorf("frep: snapshot: version 2 with an empty value slab")
		}
	default:
		return nil, fmt.Errorf("frep: snapshot: unsupported version %d (this build reads versions %d and %d)", h.version, snapVersionV1, snapVersion)
	}
	return h, nil
}

// AppendValueSection encodes vals as fixed-width value records appended
// to recs, spilling variable-width payloads (string bytes, vector
// component blocks) into heap. It is the value codec shared by store
// snapshots and catalogue flat-tuple sections. Heap offsets are relative
// to the start of heap.
func AppendValueSection(recs, heap []byte, vals []values.Value) (recsOut, heapOut []byte, err error) {
	for _, v := range vals {
		recs, heap, err = appendValueRec(recs, heap, v, 0)
		if err != nil {
			return nil, nil, err
		}
	}
	return recs, heap, nil
}

// maxVecDepth bounds vector nesting in snapshots; deeper values are a
// programming error on encode and a corruption signal on decode.
const maxVecDepth = 64

func appendValueRec(recs, heap []byte, v values.Value, depth int) ([]byte, []byte, error) {
	if depth > maxVecDepth {
		return nil, nil, fmt.Errorf("frep: snapshot: vector nesting exceeds %d", maxVecDepth)
	}
	var rec [valRecLen]byte
	rec[0] = byte(v.Kind())
	switch v.Kind() {
	case values.Null:
	case values.Bool:
		if v.Bool() {
			binary.LittleEndian.PutUint64(rec[8:16], 1)
		}
	case values.Int:
		binary.LittleEndian.PutUint64(rec[8:16], uint64(v.Int()))
	case values.Float:
		binary.LittleEndian.PutUint64(rec[8:16], math.Float64bits(v.Float()))
	case values.String:
		s := v.Str()
		binary.LittleEndian.PutUint32(rec[4:8], uint32(len(s)))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(len(heap)))
		heap = append(heap, s...)
	case values.Vec:
		// Encode components into a scratch block first (their own strings
		// and nested vectors land in the heap as we go), then append the
		// block 8-byte aligned and point the record at it.
		n := v.VecLen()
		block := make([]byte, 0, n*valRecLen)
		var err error
		for i := 0; i < n; i++ {
			block, heap, err = appendValueRec(block, heap, v.VecAt(i), depth+1)
			if err != nil {
				return nil, nil, err
			}
		}
		for len(heap)%8 != 0 {
			heap = append(heap, 0)
		}
		binary.LittleEndian.PutUint32(rec[4:8], uint32(n))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(len(heap)))
		heap = append(heap, block...)
	default:
		return nil, nil, fmt.Errorf("frep: snapshot: unencodable value kind %d", v.Kind())
	}
	return append(recs, rec[:]...), heap, nil
}

// DecodeValueSection decodes n fixed-width value records from recs with
// variable-width payloads in heap (the inverse of AppendValueSection).
// With zeroCopy set, decoded strings alias heap's backing array — the
// caller must keep it immutable and alive for the life of the values;
// otherwise string bytes are copied out. Decoding is defensive: any
// out-of-range offset, bad kind or excessive nesting is an error.
func DecodeValueSection(recs, heap []byte, n int, zeroCopy bool) ([]values.Value, error) {
	if len(recs) != n*valRecLen {
		return nil, fmt.Errorf("frep: snapshot: value section is %d bytes, want %d", len(recs), n*valRecLen)
	}
	out := make([]values.Value, n)
	// budget bounds total decoded vector components across the section so
	// hostile self-referential heaps cannot blow up decode work.
	budget := n + len(heap)/valRecLen + 1
	heapLen := uint64(len(heap))
	for i := 0; i < n; i++ {
		// Scalar fast path: decoding is on the cold-start critical path,
		// and almost every value in real catalogues is a scalar.
		rec := recs[i*valRecLen : (i+1)*valRecLen]
		payload := binary.LittleEndian.Uint64(rec[8:16])
		switch values.Kind(rec[0]) {
		case values.Int:
			out[i] = values.NewInt(int64(payload))
		case values.Float:
			out[i] = values.NewFloat(math.Float64frombits(payload))
		case values.String:
			aux := binary.LittleEndian.Uint32(rec[4:8])
			end := payload + uint64(aux)
			if end < payload || end > heapLen {
				return nil, fmt.Errorf("frep: snapshot: string payload [%d,%d) outside heap of %d bytes", payload, end, heapLen)
			}
			if aux == 0 {
				out[i] = values.NewString("")
			} else if zeroCopy {
				out[i] = values.NewString(unsafe.String(&heap[payload], int(aux)))
			} else {
				out[i] = values.NewString(string(heap[payload:end]))
			}
		case values.Bool:
			out[i] = values.NewBool(payload != 0)
		case values.Null:
			out[i] = values.NullValue()
		default:
			v, err := decodeValueRec(rec, heap, zeroCopy, 0, &budget)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
	}
	return out, nil
}

func decodeValueRec(rec, heap []byte, zeroCopy bool, depth int, budget *int) (values.Value, error) {
	if depth > maxVecDepth {
		return values.Value{}, fmt.Errorf("frep: snapshot: vector nesting exceeds %d", maxVecDepth)
	}
	aux := binary.LittleEndian.Uint32(rec[4:8])
	payload := binary.LittleEndian.Uint64(rec[8:16])
	switch values.Kind(rec[0]) {
	case values.Null:
		return values.NullValue(), nil
	case values.Bool:
		return values.NewBool(payload != 0), nil
	case values.Int:
		return values.NewInt(int64(payload)), nil
	case values.Float:
		return values.NewFloat(math.Float64frombits(payload)), nil
	case values.String:
		end := payload + uint64(aux)
		if end < payload || end > uint64(len(heap)) {
			return values.Value{}, fmt.Errorf("frep: snapshot: string payload [%d,%d) outside heap of %d bytes", payload, end, len(heap))
		}
		if aux == 0 {
			return values.NewString(""), nil
		}
		if zeroCopy {
			return values.NewString(unsafe.String(&heap[payload], int(aux))), nil
		}
		return values.NewString(string(heap[payload:end])), nil
	case values.Vec:
		end := payload + uint64(aux)*valRecLen
		if end < payload || end > uint64(len(heap)) {
			return values.Value{}, fmt.Errorf("frep: snapshot: vector block [%d,%d) outside heap of %d bytes", payload, end, len(heap))
		}
		*budget -= int(aux)
		if *budget < 0 {
			return values.Value{}, fmt.Errorf("frep: snapshot: vector components exceed section budget")
		}
		comps := make([]values.Value, aux)
		for i := range comps {
			off := payload + uint64(i)*valRecLen
			v, err := decodeValueRec(heap[off:off+valRecLen], heap, zeroCopy, depth+1, budget)
			if err != nil {
				return values.Value{}, err
			}
			comps[i] = v
		}
		return values.NewVec(comps), nil
	default:
		return values.Value{}, fmt.Errorf("frep: snapshot: unknown value kind %d", rec[0])
	}
}

// SnapshotBytes serialises the store as one snapshot byte slice (header
// plus payload). The store must be a plain store (not an overlay).
func (s *Store) SnapshotBytes() ([]byte, error) {
	if s.base != nil {
		return nil, fmt.Errorf("frep: snapshot: cannot snapshot an overlay store")
	}
	// Encode the value slab first: the heap length is needed for the
	// header and section layout.
	recs := make([]byte, 0, len(s.vals)*valRecLen)
	var heap []byte
	recs, heap, err := AppendValueSection(recs, heap, s.vals)
	if err != nil {
		return nil, err
	}
	// A complete ranked index is persisted as the version-2 ranks
	// section; anything less (no index, or a stale prefix from appends
	// after BuildRanks) encodes as plain version 1.
	withRanks := s.HasRanks() && len(s.vals) > 0
	h := snapHeader{
		version: snapVersionV1,
		nNodes:  uint64(len(s.nodes)),
		nVals:   uint64(len(s.vals)),
		nKids:   uint64(len(s.kids)),
		heapLen: uint64(len(heap)),
	}
	if withRanks {
		h.version = snapVersion
		h.flags = snapFlagRanks
	}
	nodesOff, kidsOff, valsOff, heapOff := uint64(0), uint64(len(s.nodes)*nodeRecLen), uint64(0), uint64(0)
	valsOff = align8(kidsOff + uint64(len(s.kids))*4)
	heapOff = valsOff + uint64(len(recs))
	ranksOff := align8(heapOff + uint64(len(heap)))
	h.payloadLen = ranksOff
	if withRanks {
		h.payloadLen += uint64(len(s.ranks)) * 8
	}

	buf := make([]byte, snapHeaderLen+h.payloadLen)
	payload := buf[snapHeaderLen:]
	for i, nh := range s.nodes {
		off := nodesOff + uint64(i)*nodeRecLen
		binary.LittleEndian.PutUint32(payload[off:], nh.valOff)
		binary.LittleEndian.PutUint32(payload[off+4:], nh.kidOff)
		binary.LittleEndian.PutUint32(payload[off+8:], nh.nVals)
		binary.LittleEndian.PutUint32(payload[off+12:], nh.arity)
	}
	for i, k := range s.kids {
		binary.LittleEndian.PutUint32(payload[kidsOff+uint64(i)*4:], uint32(k))
	}
	copy(payload[valsOff:], recs)
	copy(payload[heapOff:], heap)
	if withRanks {
		for i, r := range s.ranks {
			binary.LittleEndian.PutUint64(payload[ranksOff+uint64(i)*8:], r)
		}
	}
	h.payloadCRC = crc32.Checksum(payload, crcTable)
	h.encode(buf[:snapHeaderLen])
	return buf, nil
}

// WriteTo writes the store as a versioned, checksummed snapshot,
// implementing io.WriterTo. See the package comment at the top of this
// file for the layout.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	buf, err := s.SnapshotBytes()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// LoadSnapshot parses a complete snapshot held in one contiguous byte
// slice (for example a whole file read, or an mmap) and returns the
// loaded store. With zeroCopy set the node and kid slabs are
// reinterpreted in place (on little-endian hosts) and strings alias the
// heap, so the load is O(validation) in time and O(values) in memory;
// the caller must keep b immutable and alive for the life of the store.
// Without zeroCopy all slabs are copied out of b.
//
// The loaded store is frozen: it can be read, snapshotted, cloned and
// grafted from, but not Reset (its slabs may alias read-only memory).
func LoadSnapshot(b []byte, zeroCopy bool) (*Store, error) {
	h, err := decodeSnapHeader(b)
	if err != nil {
		return nil, err
	}
	if uint64(len(b)) != snapHeaderLen+h.payloadLen {
		return nil, fmt.Errorf("frep: snapshot: %d bytes for header-declared %d", len(b), snapHeaderLen+h.payloadLen)
	}
	payload := b[snapHeaderLen:]
	nodesOff, kidsOff, valsOff, heapOff, ranksOff, err := h.sectionLayout()
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(payload, crcTable); got != h.payloadCRC {
		return nil, fmt.Errorf("frep: snapshot: payload checksum mismatch (got %#x, want %#x)", got, h.payloadCRC)
	}
	st := &Store{frozen: true}
	nodesB := payload[nodesOff : nodesOff+h.nNodes*nodeRecLen]
	kidsB := payload[kidsOff : kidsOff+h.nKids*4]
	if zeroCopy && hostLittle &&
		(len(nodesB) == 0 || uintptr(unsafe.Pointer(&nodesB[0]))%4 == 0) &&
		(len(kidsB) == 0 || uintptr(unsafe.Pointer(&kidsB[0]))%4 == 0) {
		if len(nodesB) > 0 {
			n := int(h.nNodes)
			st.nodes = unsafe.Slice((*nodeHdr)(unsafe.Pointer(&nodesB[0])), n)[:n:n]
		}
		if len(kidsB) > 0 {
			n := int(h.nKids)
			st.kids = unsafe.Slice((*NodeID)(unsafe.Pointer(&kidsB[0])), n)[:n:n]
		}
	} else {
		st.nodes = make([]nodeHdr, h.nNodes)
		for i := range st.nodes {
			off := uint64(i) * nodeRecLen
			st.nodes[i] = nodeHdr{
				valOff: binary.LittleEndian.Uint32(nodesB[off:]),
				kidOff: binary.LittleEndian.Uint32(nodesB[off+4:]),
				nVals:  binary.LittleEndian.Uint32(nodesB[off+8:]),
				arity:  binary.LittleEndian.Uint32(nodesB[off+12:]),
			}
		}
		st.kids = make([]NodeID, h.nKids)
		for i := range st.kids {
			st.kids[i] = NodeID(binary.LittleEndian.Uint32(kidsB[uint64(i)*4:]))
		}
	}
	vals, err := DecodeValueSection(
		payload[valsOff:valsOff+h.nVals*valRecLen],
		payload[heapOff:heapOff+h.heapLen],
		int(h.nVals), zeroCopy)
	if err != nil {
		return nil, err
	}
	st.vals = vals[:len(vals):len(vals)]
	if h.hasRanks() {
		ranksB := payload[ranksOff : ranksOff+h.nVals*8]
		if zeroCopy && hostLittle && uintptr(unsafe.Pointer(&ranksB[0]))%8 == 0 {
			n := int(h.nVals)
			st.ranks = unsafe.Slice((*uint64)(unsafe.Pointer(&ranksB[0])), n)[:n:n]
		} else {
			st.ranks = make([]uint64, h.nVals)
			for i := range st.ranks {
				st.ranks[i] = binary.LittleEndian.Uint64(ranksB[uint64(i)*8:])
			}
		}
		st.rankedKids = uint32(h.nKids)
	}
	if err := st.validateSlabs(); err != nil {
		return nil, err
	}
	return st, nil
}

// validateSlabs checks the structural invariants a loaded store must
// satisfy so that every read accessor is panic-free: node 0 is the empty
// node, every node's value and kid ranges lie inside the slabs, and
// every kid reference names a strictly earlier node (stores are
// append-only, so a well-formed store is a backwards-pointing DAG).
// When a ranks section was loaded, every covered prefix sum is verified
// exactly against the recomputed subtree products, so a hostile count
// can never mislead Seek or COUNT(*) — at worst it is rejected here.
func (s *Store) validateSlabs() error {
	if s.nodes[0] != (nodeHdr{}) {
		return fmt.Errorf("frep: snapshot: node 0 is not the empty node")
	}
	if len(s.ranks) > 0 {
		for a := 1; a < len(s.ranks); a++ {
			if s.ranks[a] < s.ranks[a-1] {
				return fmt.Errorf("frep: snapshot: rank prefix sums decrease at value %d", a)
			}
		}
		if last := s.ranks[len(s.ranks)-1]; last > maxRankTotal {
			return fmt.Errorf("frep: snapshot: rank total %d exceeds the representable maximum", last)
		}
	}
	nVals, nKids := uint64(len(s.vals)), uint64(len(s.kids))
	for i, h := range s.nodes {
		if end := uint64(h.valOff) + uint64(h.nVals); end > nVals {
			return fmt.Errorf("frep: snapshot: node %d values [%d,%d) outside value slab of %d", i, h.valOff, end, nVals)
		}
		nk := uint64(h.nVals) * uint64(h.arity)
		if end := uint64(h.kidOff) + nk; end > nKids {
			return fmt.Errorf("frep: snapshot: node %d kids [%d,%d) outside kid slab of %d", i, h.kidOff, end, nKids)
		}
		for _, k := range s.kids[h.kidOff : uint64(h.kidOff)+nk] {
			if uint32(k) >= uint32(i) {
				return fmt.Errorf("frep: snapshot: node %d references kid %d (kids must point backwards)", i, k)
			}
		}
		if len(s.ranks) > 0 {
			if err := s.validateNodeRanks(NodeID(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateNodeRanks recomputes the per-value weights of node id from
// its kids' (already validated, backwards-pointing) rank windows and
// checks them against the loaded prefix sums. Loaded ranks cover the
// whole slab, so every node is checked.
func (s *Store) validateNodeRanks(id NodeID) error {
	h := &s.nodes[id]
	for v := uint64(0); v < uint64(h.nVals); v++ {
		a := uint64(h.valOff) + v
		got := s.ranks[a] - rankBefore(s.ranks, a)
		want, overflow := uint64(1), false
		for j := uint64(0); j < uint64(h.arity); j++ {
			kh := &s.nodes[s.kids[uint64(h.kidOff)+v*uint64(h.arity)+j]]
			kt := uint64(0)
			if kh.nVals > 0 {
				end := uint64(kh.valOff) + uint64(kh.nVals)
				kt = s.ranks[end-1] - rankBefore(s.ranks, uint64(kh.valOff))
			}
			hi, lo := bits.Mul64(want, kt)
			if hi != 0 {
				overflow = true
				break
			}
			want = lo
		}
		if overflow || got != want {
			return fmt.Errorf("frep: snapshot: node %d value %d has rank weight %d, want %d", id, v, got, want)
		}
	}
	return nil
}
