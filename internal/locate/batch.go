package locate

import (
	"math"

	"serpentine/internal/geometry"
)

// MatrixCost is implemented by cost models that can fill a dense
// src × dst locate-time matrix faster than repeated LocateTime calls.
// Schedulers that build cost matrices (LOSS, SLTF) type-assert for it
// and fall back to per-call evaluation otherwise.
type MatrixCost interface {
	Cost
	// CostMatrix fills buf[i*len(dsts)+j] = LocateTime(srcs[i],
	// dsts[j]) for every pair. buf must hold at least
	// len(srcs)*len(dsts) entries; the fill touches nothing beyond
	// that prefix.
	CostMatrix(buf []float64, srcs, dsts []int)
}

// FillCostMatrix fills buf[i*len(dsts)+j] = c.LocateTime(srcs[i],
// dsts[j]), using the batched fast path when c provides one.
func FillCostMatrix(c Cost, buf []float64, srcs, dsts []int) {
	if mc, ok := c.(MatrixCost); ok {
		mc.CostMatrix(buf, srcs, dsts)
		return
	}
	k := len(dsts)
	for i, s := range srcs {
		row := buf[i*k : (i+1)*k]
		for j, d := range dsts {
			row[j] = c.LocateTime(s, d)
		}
	}
}

// costBlock is how many destinations CostMatrix resolves at a time,
// into a stack buffer, so the fill allocates nothing.
const costBlock = 256

// endpoint is a segment resolved to its section constants and
// physical position.
type endpoint struct {
	lbn int
	pos float64
	sec *secInfo
}

func (m *Model) endpoint(lbn int) endpoint {
	s := &m.secs[m.sec.Index(lbn)]
	return endpoint{lbn: lbn, pos: s.pos(lbn), sec: s}
}

// CostMatrix implements MatrixCost. Each destination is resolved once
// per call, in blocks of costBlock, and each source once per block;
// the cells are then the fast path of LocateTime on the resolved
// endpoints.
func (m *Model) CostMatrix(buf []float64, srcs, dsts []int) {
	k := len(dsts)
	var blk [costBlock]endpoint
	for j0 := 0; j0 < k; j0 += costBlock {
		ds := blk[:min(costBlock, k-j0)]
		for j := range ds {
			ds[j] = m.endpoint(dsts[j0+j])
		}
		for i, s := range srcs {
			off := i*k + j0
			m.locateRow(buf[off:off+len(ds)], m.endpoint(s), ds)
		}
	}
}

// locateRow fills row[j] = LocateTime(src, dsts[j]) from resolved
// endpoints, by the same expressions as LocateTime.
func (m *Model) locateRow(row []float64, src endpoint, dsts []endpoint) {
	ss, sp := src.sec, src.pos
	const eps = 1e-12
	for j := range dsts {
		d := &dsts[j]
		if src.lbn == d.lbn {
			row[j] = 0
			continue
		}
		ds, dp := d.sec, d.pos
		if ss.track == ds.track && d.lbn > src.lbn && ds.section <= ss.section+2 {
			row[j] = m.p.ReadSecPerSection * math.Abs(dp-sp)
			continue
		}
		landing := ds.landing
		scanDist := math.Abs(landing - sp)
		readDist := math.Abs(dp - landing)
		scanDir := ss.dir
		if scanDist > eps {
			scanDir = -1
			if landing > sp {
				scanDir = 1
			}
		}
		reversals := 0
		if scanDir != ss.dir {
			reversals++
		}
		if ds.dir != scanDir {
			reversals++
		}
		t := m.p.OverheadSec +
			float64(reversals)*m.p.ReverseSec +
			m.p.ScanSecPerSection*scanDist +
			m.p.ReadSecPerSection*readDist
		if ss.track != ds.track {
			t += m.p.TrackSwitchSec
		}
		row[j] = t
	}
}

// CostMatrix implements MatrixCost for the perturbed decorator: the
// base matrix is filled batched, then the Figure 10 alternating-sign
// error is applied per destination.
func (p *Perturbed) CostMatrix(buf []float64, srcs, dsts []int) {
	FillCostMatrix(p.Base, buf, srcs, dsts)
	k := len(dsts)
	for i := range srcs {
		row := buf[i*k : (i+1)*k]
		for j, d := range dsts {
			// Note: LocateTime(x, x) is perturbed too, matching the
			// per-call decorator exactly.
			t := row[j]
			if d%2 == 0 {
				t += p.E
			} else {
				t -= p.E
			}
			if t < 0 {
				t = 0
			}
			row[j] = t
		}
	}
}

// referenceCost evaluates every estimate through the original
// piecewise decomposition, bypassing the fast-path tables and the
// batched matrix fill. It deliberately does not implement MatrixCost,
// so schedulers handed one exercise their per-call fallback paths.
// Equivalence tests compare plans and times produced against it
// bit-for-bit with the fast path.
type referenceCost struct {
	m *Model
}

// Reference returns a Cost that evaluates estimates through the
// original piecewise decomposition rather than the precomputed
// tables. It exists for the fast-path equivalence tests.
func (m *Model) Reference() Cost { return referenceCost{m} }

func (r referenceCost) LocateTime(src, dst int) float64 { return r.m.referenceLocateTime(src, dst) }
func (r referenceCost) ReadTime(lbn int) float64        { return r.m.referenceReadTime(lbn) }
func (r referenceCost) FullReadTime() float64           { return r.m.FullReadTime() }
func (r referenceCost) View() *geometry.View            { return r.m.View() }
func (r referenceCost) Segments() int                   { return r.m.Segments() }
