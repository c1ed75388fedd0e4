package core

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/query"
	"repro/internal/rpe"
	"repro/internal/stats"
)

// ErrUnprepared is returned for a statement handle that names no shape
// in the database's statement table: the shape was evicted, dropped by
// DefineView, or prepared on another database — or the handle is not one
// this version encodes. Preparing the statement's text again gives a
// handle that binds.
var ErrUnprepared = errors.New("core: statement shape not prepared")

// statements is the database's statement table: one compiled template
// per statement shape (query.AppendShape), shared by every query entry
// point, so a statement that differs from an earlier one only in its
// literals is bound, not compiled. It holds the pathway views too, since
// templates are compiled against them: DefineView empties the table and
// bumps its generation, and a compile begun under an older generation is
// not entered. It holds at most stats.DefaultMaxStatements shapes — the
// statistics store's top-K — evicting the least-used past that.
type statements struct {
	mu      sync.RWMutex
	views   query.Views // replaced, never written: compiles read a snapshot
	gen     uint64
	shapes  map[uint64]*shape // by the FNV-1a hash of the shape
	evicted atomic.Int64
}

// shape is a statement shape's template and the fingerprint its
// statements share.
type shape struct {
	key          string
	hash         uint64
	tmpl         *query.Template
	digest, norm string
	uses         atomic.Int64
}

// lookup returns the shape of hash h — if key is not nil, only when it is
// that exact shape — or nil.
func (t *statements) lookup(h uint64, key []byte) *shape {
	t.mu.RLock()
	s := t.shapes[h]
	t.mu.RUnlock()
	if s == nil || (key != nil && s.key != string(key)) {
		return nil
	}
	s.uses.Add(1)
	return s
}

// put enters a shape compiled under generation gen, unless DefineView
// has run since.
func (t *statements) put(gen uint64, s *shape) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if gen != t.gen {
		return
	}
	if _, ok := t.shapes[s.hash]; !ok && len(t.shapes) >= stats.DefaultMaxStatements {
		var victim *shape
		for _, c := range t.shapes {
			if victim == nil || c.uses.Load() < victim.uses.Load() {
				victim = c
			}
		}
		delete(t.shapes, victim.hash)
		t.evicted.Add(1)
	}
	t.shapes[s.hash] = s
}

// Prepare compiles src, or binds it to the compiled template of its shape
// when the statement table holds one (Prepared.Cached then reports true).
// A bind runs every value check a compile runs, so either way an invalid
// statement fails with the same error.
func (db *DB) Prepare(src string) (*Prepared, error) {
	toks, err := rpe.Lex(src)
	if err != nil {
		return nil, err
	}
	var buf [512]byte
	key := query.AppendShape(buf[:0], toks)
	h := uint64(14695981039346656037)
	for _, c := range key {
		h = (h ^ uint64(c)) * 1099511628211
	}
	if s := db.stmts.lookup(h, key); s != nil {
		lits := s.tmpl.Literals(toks)
		a, err := s.tmpl.Bind(src, lits)
		if err != nil {
			return nil, err
		}
		return &Prepared{db: db, src: src, a: a, shape: s, lits: lits, cached: true}, nil
	}
	db.stmts.mu.RLock()
	views, gen := db.stmts.views, db.stmts.gen
	db.stmts.mu.RUnlock()
	q, err := query.ParseTokens(src, toks)
	if err != nil {
		return nil, err
	}
	a, err := query.AnalyzeWithViews(q, db.Schema(), views)
	if err != nil {
		return nil, err
	}
	tmpl, err := query.NewTemplate(a, toks)
	if err != nil {
		return nil, err
	}
	s := &shape{key: string(key), hash: h, tmpl: tmpl}
	s.digest, s.norm = stats.FingerprintTokens(toks)
	db.stmts.put(gen, s)
	return &Prepared{db: db, src: src, a: a, shape: s, lits: tmpl.Literals(toks)}, nil
}

// handleEncoding is the text form of a statement handle.
var handleEncoding = base64.RawURLEncoding.Strict()

// Handle returns the statement's handle: the hash of its shape and its
// literals, codec-encoded, in unpadded base64url. PrepareHandle binds it
// again on any database whose table holds the shape; the handle itself
// keeps no state on the server.
func (p *Prepared) Handle() string {
	b := binary.AppendUvarint(nil, p.shape.hash)
	b = binary.AppendUvarint(b, uint64(len(p.lits)))
	for _, l := range p.lits {
		b = codec.AppendString(append(b, byte(l.Kind)), l.Text)
	}
	return handleEncoding.EncodeToString(b)
}

// PrepareHandle binds a handle from Prepared.Handle to its shape's
// template. It fails with ErrUnprepared when the handle does not decode
// or the table does not hold its shape, and with the bind's error when
// its literals do not fit the shape.
func (db *DB) PrepareHandle(handle string) (*Prepared, error) {
	b, err := handleEncoding.DecodeString(handle)
	if err != nil {
		return nil, ErrUnprepared
	}
	var r codec.Reader
	r.Reset(b)
	h := r.Uvarint()
	n := r.Uvarint()
	if n > uint64(r.Len()/2) { // every literal takes at least two bytes
		return nil, ErrUnprepared
	}
	lits := make([]query.Literal, n)
	for i := range lits {
		lits[i].Kind = rpe.Kind(r.Byte())
		lits[i].Text = r.Str()
	}
	r.Done()
	s := db.stmts.lookup(h, nil)
	if r.Err() != nil || s == nil {
		return nil, ErrUnprepared
	}
	a, err := s.tmpl.Bind("", lits)
	if err != nil {
		return nil, err
	}
	return &Prepared{db: db, a: a, shape: s, lits: lits, cached: true}, nil
}

// StatementTable reports how many statement shapes the table holds and
// how many it has evicted to stay within its bound.
func (db *DB) StatementTable() (shapes int, evicted int64) {
	db.stmts.mu.RLock()
	defer db.stmts.mu.RUnlock()
	return len(db.stmts.shapes), db.stmts.evicted.Load()
}
