package halk

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/query"
)

// This file holds the serving side of the model: the view every online
// read loads once per request and reads without a lock, and the writers
// that publish a new one.

// view is one published, immutable serving state of the model: the
// operator network over headers of the arrays it was published with,
// the entity version, and the cos/sin tables of its entity table, built
// at most once. No writer writes into an array a published view holds —
// fine-tune and SetEntityAnglesBatch write copies, a reload installs
// fresh arrays — so a reader that loaded a view ranks against one
// consistent model for as long as it holds it, and a ranking that
// reports a view's version ran on exactly that view's table.
//
// Offline training is the exception: its optimizer steps the live
// arrays in place, and every loss build publishes a new view over them
// so the next ranking rebuilds the trig tables.
type view struct {
	net
	version uint64 // entity version
	// rebuilt is the version of the view's last change that no dirty
	// list describes (reload, training loss, MarkEntitiesUpdated,
	// SetEntityAnglesBatch); fine-tune's publish leaves it alone.
	rebuilt uint64

	trigOnce sync.Once
	cos, sin []float64
}

// trig returns cos/sin of every entity angle of the view, so ranking
// reduces chord lengths to dot products of unit vectors:
// |sin((p−s)/2)| = sqrt((1 − cos(p−s))/2) with
// cos(p−s) = cos p·cos s + sin p·sin s. Built on first use.
func (v *view) trig() (cosT, sinT []float64) {
	v.trigOnce.Do(func() {
		data := v.ent.Data
		v.cos, v.sin = make([]float64, len(data)), make([]float64, len(data))
		for i, a := range data {
			v.cos[i], v.sin[i] = math.Cos(a), math.Sin(a)
		}
	})
	return v.cos, v.sin
}

// publishLocked installs a view of n at the next entity version and
// returns it. whole marks a change no dirty list describes. Callers hold
// m.mu, and n's arrays are never written again by a writer.
func (m *Model) publishLocked(n net, whole bool) *view {
	prev := m.pub.Load()
	v := &view{net: n, version: prev.version + 1, rebuilt: prev.rebuilt}
	if whole {
		v.rebuilt = v.version
	}
	m.pub.Store(v)
	return v
}

// EntityVersion returns the version of the served view. Every change to
// the served model publishes a view at a higher version, so equal
// versions imply equal tables; consumers (sharded engine snapshots,
// serving answer caches) compare versions instead of hashing the table.
func (m *Model) EntityVersion() uint64 { return m.pub.Load().version }

// MarkEntitiesUpdated publishes a new view over the current arrays after
// an out-of-band mutation of them (the training optimizer's in-place
// step, or a test poking rows directly), so the next ranking rebuilds its
// tables. The training loss calls it at every build.
func (m *Model) MarkEntitiesUpdated() {
	m.mu.Lock()
	// Every writer that replaces an array publishes fresh headers, so
	// the current view's headers already cover the live arrays.
	m.publishLocked(m.pub.Load().net, true)
	m.mu.Unlock()
}

// EmbedQuery embeds a (possibly union-containing) query against the
// served view and returns the value-level arcs of its DNF disjuncts.
func (m *Model) EmbedQuery(n *query.Node) []ValueArc { return m.pub.Load().embedQuery(n) }

// Distances implements model.Interface: the score of every entity
// against the query (min over DNF disjuncts of arc distance plus group
// penalty), embedded and scanned on one served view. See
// DistancesContext for the cancellable variant.
func (m *Model) Distances(n *query.Node) []float64 {
	d, _ := m.pub.Load().distances(nil, n)
	return d
}

// DistancesContext is the cancellable counterpart of Distances: it
// returns ctx.Err() as soon as the entity scan notices the context is
// done, instead of completing the full ranking.
func (m *Model) DistancesContext(ctx context.Context, n *query.Node) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m.pub.Load().distances(ctx, n)
}

// EntityUpdate pairs an entity with its replacement angle vector.
type EntityUpdate struct {
	E      kg.EntityID
	Angles []float64
}

// SetEntityAnglesBatch replaces the point embeddings of many entities
// and publishes the result as one view at one new version. All updates
// are validated before any row is written, so the call either applies
// the whole batch or nothing. The rows are written into a copy of the
// entity table, so a ranking observes either the entire old table or the
// entire new one — never a mix — and, because cache keys are namespaced
// by version, a cached answer is never served across the bump.
func (m *Model) SetEntityAnglesBatch(updates []EntityUpdate) error {
	for _, u := range updates {
		if err := m.checkEntityAngles(u.E, u.Angles); err != nil {
			return err
		}
	}
	if len(updates) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ent := slices.Clone(m.ent.Data)
	for _, u := range updates {
		copy(ent[int(u.E)*m.cfg.Dim:], u.Angles)
	}
	m.ent.Data = ent
	m.publishLocked(m.net.views(), true)
	return nil
}

func (m *Model) checkEntityAngles(e kg.EntityID, angles []float64) error {
	if len(angles) != m.cfg.Dim {
		return fmt.Errorf("halk: SetEntityAnglesBatch: got %d angles, model dim is %d", len(angles), m.cfg.Dim)
	}
	if int(e) < 0 || int(e) >= m.graph.NumEntities() {
		return fmt.Errorf("halk: SetEntityAnglesBatch: entity %d out of range [0, %d)", e, m.graph.NumEntities())
	}
	return nil
}
