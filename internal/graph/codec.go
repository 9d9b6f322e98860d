package graph

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Binary codec: a versioned little-endian dump of the CSR arrays, so a
// long-lived server can ingest and cache graphs without rebuilding them
// edge by edge.
//
// Layout (all little-endian):
//
//	magic   [4]byte  "WASO"
//	version uint32   currently 1
//	n       uint64   node count
//	nnz     uint64   adjacency entries (2·M)
//	interest n × float64
//	off      (n+1) × int64
//	nbr      nnz × int32
//	wOut     nnz × float64
//	wIn      nnz × float64
//
// Decode re-validates the structure, so a corrupt or hostile stream yields
// an error, never a panic or an invalid Graph.

var codecMagic = [4]byte{'W', 'A', 'S', 'O'}

const codecVersion = 1

// maxCodecNodes bounds the node count Decode accepts; NodeID is int32.
const maxCodecNodes = math.MaxInt32

// Encode writes g in the versioned binary format.
func Encode(w io.Writer, g *Graph) error {
	if g == nil {
		return fmt.Errorf("graph: Encode nil graph")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(codecMagic[:]); err != nil {
		return err
	}
	hdr := []any{
		uint32(codecVersion),
		uint64(g.N()),
		uint64(len(g.nbr)),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, arr := range []any{g.interest, g.off, g.nbr, g.wOut, g.wIn} {
		if err := binary.Write(bw, binary.LittleEndian, arr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a graph written by Encode and validates it. Truncated or
// corrupt input returns an error; hostile length fields cannot force large
// allocations because arrays are read in bounded chunks.
func Decode(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: decode header: %w", noEOF(err))
	}
	if magic != codecMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic[:])
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("graph: decode version: %w", noEOF(err))
	}
	if version != codecVersion {
		return nil, fmt.Errorf("graph: unsupported codec version %d (want %d)", version, codecVersion)
	}
	var n, nnz uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("graph: decode node count: %w", noEOF(err))
	}
	if err := binary.Read(br, binary.LittleEndian, &nnz); err != nil {
		return nil, fmt.Errorf("graph: decode edge count: %w", noEOF(err))
	}
	if n > maxCodecNodes {
		return nil, fmt.Errorf("graph: node count %d exceeds limit %d", n, maxCodecNodes)
	}
	if nnz%2 != 0 {
		return nil, fmt.Errorf("graph: odd adjacency entry count %d", nnz)
	}
	g := &Graph{}
	var err error
	if g.interest, err = readFloats(br, n, "interest"); err != nil {
		return nil, err
	}
	if g.off, err = readInt64s(br, n+1, "offsets"); err != nil {
		return nil, err
	}
	if g.nbr, err = readInt32s(br, nnz, "adjacency"); err != nil {
		return nil, err
	}
	if g.wOut, err = readFloats(br, nnz, "out-weights"); err != nil {
		return nil, err
	}
	if g.wIn, err = readFloats(br, nnz, "in-weights"); err != nil {
		return nil, err
	}
	if len(g.off) == 0 || g.off[len(g.off)-1] != int64(nnz) {
		return nil, fmt.Errorf("graph: offsets inconsistent with %d adjacency entries", nnz)
	}
	for i := 1; i < len(g.off); i++ {
		if g.off[i] < g.off[i-1] {
			return nil, fmt.Errorf("graph: offsets not monotone at node %d", i-1)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: decoded graph invalid: %w", err)
	}
	// The fused weight array is derived state, not part of the wire format.
	if err := g.fuse(); err != nil {
		return nil, err
	}
	return g, nil
}

// chunkElems bounds per-read allocations so a hostile header cannot force a
// huge up-front allocation: memory is committed only as bytes arrive.
const chunkElems = 1 << 16

// readChunked reads count elements of size elemSize, appending decoded
// chunks via emit. It allocates at most chunkElems elements per read, and
// no more than the payload actually needs.
func readChunked(r io.Reader, count uint64, elemSize int, field string, emit func(chunk []byte)) error {
	buf := make([]byte, int(min(count, chunkElems))*elemSize)
	for count > 0 {
		elems := count
		if elems > chunkElems {
			elems = chunkElems
		}
		chunk := buf[:int(elems)*elemSize]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return fmt.Errorf("graph: decode %s: %w", field, noEOF(err))
		}
		emit(chunk)
		count -= elems
	}
	return nil
}

func readFloats(r io.Reader, count uint64, field string) ([]float64, error) {
	out := make([]float64, 0, min(count, chunkElems))
	err := readChunked(r, count, 8, field, func(chunk []byte) {
		for i := 0; i+8 <= len(chunk); i += 8 {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(chunk[i:])))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func readInt64s(r io.Reader, count uint64, field string) ([]int64, error) {
	out := make([]int64, 0, min(count, chunkElems))
	err := readChunked(r, count, 8, field, func(chunk []byte) {
		for i := 0; i+8 <= len(chunk); i += 8 {
			out = append(out, int64(binary.LittleEndian.Uint64(chunk[i:])))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func readInt32s(r io.Reader, count uint64, field string) ([]int32, error) {
	out := make([]int32, 0, min(count, chunkElems))
	err := readChunked(r, count, 4, field, func(chunk []byte) {
		for i := 0; i+4 <= len(chunk); i += 4 {
			out = append(out, int32(binary.LittleEndian.Uint32(chunk[i:])))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// noEOF maps io.EOF to io.ErrUnexpectedEOF: inside a fixed-layout decode,
// running out of bytes is always truncation, never a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ---------------------------------------------------------------------------
// JSON edge-list ingestion

// EdgeListJSON is the JSON upload format for externally-built graphs:
//
//	{
//	  "nodes": 4,
//	  "interest": [0.5, 1.0, 0.0, 2.0],
//	  "edges": [
//	    {"src": 0, "dst": 1, "tau": 1.0},
//	    {"src": 1, "dst": 2, "tau_out": 0.3, "tau_in": 0.7}
//	  ]
//	}
//
// "interest" is optional (defaults to all zeros, length must equal "nodes"
// when present). Per edge, "tau" sets both directions symmetrically;
// "tau_out"/"tau_in" set τ_{src,dst} and τ_{dst,src} independently
// (a missing direction is 0); an edge with no tau field defaults to the
// symmetric weight 1. Duplicate edges sum, matching Builder semantics.
type EdgeListJSON struct {
	Nodes    int            `json:"nodes"`
	Interest []float64      `json:"interest"`
	Edges    []EdgeListEdge `json:"edges"`
}

// EdgeListEdge is one undirected edge of an EdgeListJSON document.
type EdgeListEdge struct {
	Src    NodeID   `json:"src"`
	Dst    NodeID   `json:"dst"`
	Tau    *float64 `json:"tau"`
	TauOut *float64 `json:"tau_out"`
	TauIn  *float64 `json:"tau_in"`
}

// ReadEdgeListJSON decodes an EdgeListJSON document into a validated Graph.
// Unknown fields are rejected so typos fail loudly.
func ReadEdgeListJSON(r io.Reader) (*Graph, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc EdgeListJSON
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("graph: edge-list JSON: %w", err)
	}
	return doc.Build()
}

// Build assembles the document into a Graph via a Builder.
func (doc EdgeListJSON) Build() (*Graph, error) {
	if doc.Nodes < 0 {
		return nil, fmt.Errorf("graph: edge list with negative node count %d", doc.Nodes)
	}
	if doc.Interest != nil && len(doc.Interest) != doc.Nodes {
		return nil, fmt.Errorf("graph: edge list has %d interest scores for %d nodes", len(doc.Interest), doc.Nodes)
	}
	b := NewBuilder(doc.Nodes)
	for i, eta := range doc.Interest {
		b.SetInterest(NodeID(i), eta)
	}
	for p, e := range doc.Edges {
		if e.Tau != nil && (e.TauOut != nil || e.TauIn != nil) {
			return nil, fmt.Errorf("graph: edge %d sets both tau and tau_out/tau_in", p)
		}
		var out, in float64
		switch {
		case e.Tau != nil:
			out, in = *e.Tau, *e.Tau
		case e.TauOut != nil || e.TauIn != nil:
			if e.TauOut != nil {
				out = *e.TauOut
			}
			if e.TauIn != nil {
				in = *e.TauIn
			}
		default:
			out, in = 1, 1
		}
		b.AddEdge(e.Src, e.Dst, out, in)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("graph: edge-list build: %w", err)
	}
	return g, nil
}
