package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/query"
	"repro/internal/rpe"
	"repro/internal/stats"
)

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

// lookup returns the shape of hash h when it is the shape key, or nil.
func (t *statements) lookup(h uint64, key []byte) *shape {
	t.mu.RLock()
	s := t.shapes[h]
	t.mu.RUnlock()
	if s == nil || s.key != string(key) {
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
		a, err := s.tmpl.Bind(src, toks)
		if err != nil {
			return nil, err
		}
		return &Prepared{db: db, src: src, a: a, shape: s, cached: true}, nil
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
	s.digest, s.norm = query.Fingerprint(toks)
	db.stmts.put(gen, s)
	return &Prepared{db: db, src: src, a: a, shape: s}, nil
}

// StatementTable reports how many statement shapes the table holds and
// how many it has evicted to stay within its bound.
func (db *DB) StatementTable() (shapes int, evicted int64) {
	db.stmts.mu.RLock()
	defer db.stmts.mu.RUnlock()
	return len(db.stmts.shapes), db.stmts.evicted.Load()
}
