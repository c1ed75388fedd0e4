package graph

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/schema"
)

// NodeSpec describes one node in an external inventory snapshot. Nodes are
// keyed by their schema-unique "id" field.
type NodeSpec struct {
	Class  string `json:"class"`
	Fields Fields `json:"fields"`
}

// EdgeSpec describes one edge in a snapshot. Endpoints reference node ids
// (not UIDs, which are internal); the edge itself is keyed by its own
// unique "id" field.
type EdgeSpec struct {
	Class  string `json:"class"`
	SrcID  any    `json:"src_id"`
	DstID  any    `json:"dst_id"`
	Fields Fields `json:"fields"`
}

// Snapshot is a full statement of a data source's contents at one moment.
// Several of Nepal's inventory sources provide periodic snapshots rather
// than update streams (§3.1); ApplySnapshot diffs a snapshot against the
// store to synthesize the equivalent inserts, updates, and deletes.
type Snapshot struct {
	Nodes []NodeSpec `json:"nodes"`
	Edges []EdgeSpec `json:"edges"`
}

// DiffStats reports what an ApplySnapshot call changed.
type DiffStats struct {
	NodesInserted, NodesUpdated, NodesDeleted int
	EdgesInserted, EdgesUpdated, EdgesDeleted int
}

// Total returns the total number of changes applied.
func (d DiffStats) Total() int {
	return d.NodesInserted + d.NodesUpdated + d.NodesDeleted +
		d.EdgesInserted + d.EdgesUpdated + d.EdgesDeleted
}

// ApplySnapshot is the update-by-snapshot service: it reconciles the store
// with snap. Objects present in snap but not in the store are inserted;
// objects whose fields differ are updated; live objects of classes that
// appear in snap but are absent from it are deleted. Objects of classes
// not mentioned in the snapshot at all are left untouched, so independent
// sources can own disjoint parts of the graph.
func (st *Store) ApplySnapshot(snap *Snapshot) (DiffStats, error) {
	var stats DiffStats
	defer func(start time.Time) { st.recordSnapshot(time.Since(start)) }(time.Now())

	nodeClasses := make(map[string]bool)
	seenNodes := make(map[UID]bool, len(snap.Nodes))
	for i := range snap.Nodes {
		n := &snap.Nodes[i]
		nodeClasses[n.Class] = true
		id, ok := n.Fields["id"]
		if !ok {
			return stats, fmt.Errorf("graph: snapshot node %d of class %s has no id", i, n.Class)
		}
		if uid, exists := st.LookupUnique(schema.NodeRoot, "id", id); exists {
			obj := st.Elem(uid)
			if obj.Class.Name != n.Class {
				// A node changed class: model as delete + insert.
				if err := st.Delete(uid); err != nil {
					return stats, err
				}
				stats.NodesDeleted++
				newUID, err := st.InsertNode(n.Class, n.Fields)
				if err != nil {
					return stats, fmt.Errorf("graph: snapshot reinsert node id=%v: %w", id, err)
				}
				stats.NodesInserted++
				seenNodes[newUID] = true
				continue
			}
			if !sameFields(obj.Class.Map(obj.Current().Rec), n.Fields) {
				if err := st.Update(uid, n.Fields); err != nil {
					return stats, fmt.Errorf("graph: snapshot update node id=%v: %w", id, err)
				}
				stats.NodesUpdated++
			}
			seenNodes[uid] = true
			continue
		}
		uid, err := st.InsertNode(n.Class, n.Fields)
		if err != nil {
			return stats, fmt.Errorf("graph: snapshot insert node id=%v: %w", id, err)
		}
		stats.NodesInserted++
		seenNodes[uid] = true
	}

	edgeClasses := make(map[string]bool)
	seenEdges := make(map[UID]bool, len(snap.Edges))
	for i := range snap.Edges {
		e := &snap.Edges[i]
		edgeClasses[e.Class] = true
		id, ok := e.Fields["id"]
		if !ok {
			return stats, fmt.Errorf("graph: snapshot edge %d of class %s has no id", i, e.Class)
		}
		src, okSrc := st.LookupUnique(schema.NodeRoot, "id", e.SrcID)
		dst, okDst := st.LookupUnique(schema.NodeRoot, "id", e.DstID)
		if !okSrc || !okDst {
			return stats, fmt.Errorf("graph: snapshot edge id=%v references unknown endpoint (%v -> %v)",
				id, e.SrcID, e.DstID)
		}
		if uid, exists := st.LookupUnique(schema.EdgeRoot, "id", id); exists {
			obj := st.Elem(uid)
			if obj.Class.Name != e.Class || obj.Src != src || obj.Dst != dst {
				if err := st.Delete(uid); err != nil {
					return stats, err
				}
				stats.EdgesDeleted++
			} else {
				if !sameFields(obj.Class.Map(obj.Current().Rec), e.Fields) {
					if err := st.Update(uid, e.Fields); err != nil {
						return stats, fmt.Errorf("graph: snapshot update edge id=%v: %w", id, err)
					}
					stats.EdgesUpdated++
				}
				seenEdges[uid] = true
				continue
			}
		}
		uid, err := st.InsertEdge(e.Class, src, dst, e.Fields)
		if err != nil {
			return stats, fmt.Errorf("graph: snapshot insert edge id=%v: %w", id, err)
		}
		stats.EdgesInserted++
		seenEdges[uid] = true
	}

	// Deletions: live objects of snapshot-owned classes that were not seen.
	// Edges first, so node deletion cascades don't double-count.
	for class := range edgeClasses {
		for _, uid := range st.ByClass(class) {
			obj := st.Elem(uid)
			if obj.Current() != nil && !seenEdges[uid] {
				if err := st.Delete(uid); err != nil {
					return stats, err
				}
				stats.EdgesDeleted++
			}
		}
	}
	for class := range nodeClasses {
		for _, uid := range st.ByClass(class) {
			obj := st.Elem(uid)
			if obj.Current() != nil && !seenNodes[uid] {
				if err := st.Delete(uid); err != nil {
					return stats, err
				}
				stats.NodesDeleted++
			}
		}
	}
	return stats, nil
}

// CurrentSnapshot exports the live graph as a Snapshot, the inverse of
// ApplySnapshot for classes with live objects.
func (st *Store) CurrentSnapshot() *Snapshot {
	st.mu.RLock()
	defer st.mu.RUnlock()
	snap := &Snapshot{}
	for uid := UID(1); uid < st.nextUID; uid++ {
		obj := st.objects.at(uid)
		if obj == nil {
			continue
		}
		cur := obj.Current()
		if cur == nil {
			continue
		}
		if obj.IsEdge() {
			srcCur := st.objects.at(obj.Src).Current()
			dstCur := st.objects.at(obj.Dst).Current()
			if srcCur == nil || dstCur == nil {
				continue
			}
			snap.Edges = append(snap.Edges, EdgeSpec{
				Class:  obj.Class.Name,
				SrcID:  srcCur.Rec[schema.IDSlot],
				DstID:  dstCur.Rec[schema.IDSlot],
				Fields: obj.Class.Map(cur.Rec),
			})
		} else {
			snap.Nodes = append(snap.Nodes, NodeSpec{Class: obj.Class.Name, Fields: obj.Class.Map(cur.Rec)})
		}
	}
	return snap
}

// sameFields compares two field maps structurally, treating numerics that
// hold the same integral value as equal (JSON round-trips ints to float64).
func sameFields(a, b Fields) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			return false
		}
		if valueKey(av) != valueKey(bv) && !reflect.DeepEqual(av, bv) {
			return false
		}
	}
	return true
}

// WriteSnapshot encodes snap as JSON to w.
func WriteSnapshot(w io.Writer, snap *Snapshot) error {
	enc := json.NewEncoder(w)
	return enc.Encode(snap)
}

// ReadSnapshot decodes a JSON snapshot from r, distinguishing a truncated
// stream (graph.ErrTruncated) from malformed content and rejecting
// trailing data after the snapshot document.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	dec := json.NewDecoder(r)
	var snap Snapshot
	if err := dec.Decode(&snap); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: snapshot ended mid-document", ErrTruncated)
		}
		return nil, fmt.Errorf("graph: decoding snapshot: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("graph: trailing data after snapshot document")
	}
	return &snap, nil
}
