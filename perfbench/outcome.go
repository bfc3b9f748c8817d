package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"serpentine/internal/hsm"
	"serpentine/internal/tertiary"
)

// outcome is the simulated result of one repetition of a workload: a
// pure function of the seed, so every repetition — traced or not —
// must produce an identical outcome.
type outcome struct {
	// offered counts every operation the repetition offered (reads
	// and writes); reads counts the reads among them.
	offered, reads int
	// served, failed, rejected and shed partition the reads.
	served, failed, rejected, shed int
	// sojourns are the served reads' virtual-time sojourns, sorted.
	sojourns []float64
	// makespan is the summed virtual makespan of the repetition's runs.
	makespan float64
	// digest hashes every completion in order.
	digest uint64
	// sim holds the simulated per-layer metrics, by metric name.
	sim map[string]float64
}

// checkf is one violated invariant.
func checkf(format string, args ...any) error {
	return fmt.Errorf("check failed: "+format, args...)
}

// attributionTol is the telescoping bound on every completion: its
// attribution components sum to its sojourn within 1e-9 s.
const attributionTol = 1e-9

// tally accumulates one repetition's completions and library metrics.
type tally struct {
	o       outcome
	h       hash.Hash64
	tape    int // completions served by a drive (not the cache)
	locate  float64
	xfer    float64
	mount   float64
	queue   float64
	robot   float64
	busy    float64 // drive-busy virtual seconds
	driveT  float64 // drives × makespan
	libReqs int     // requests that reached a library's admission
	m       tertiary.Metrics
}

func newTally() *tally {
	return &tally{o: outcome{sim: make(map[string]float64)}, h: fnv.New64a()}
}

func (t *tally) f64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	t.h.Write(b[:])
}

// completions checks and folds one run's completions.
func (t *tally) completions(comps []tertiary.Completion) error {
	for _, c := range comps {
		if e := c.AttributionError(); !(e <= attributionTol) {
			return checkf("attribution of %s (arrival %g) misses its sojourn by %g s", c.ObjectID, c.Arrival, e)
		}
		t.h.Write([]byte(c.ObjectID))
		t.f64(c.Arrival)
		t.f64(c.Done)
		t.f64(float64(c.DriveID))
		t.o.sojourns = append(t.o.sojourns, c.Latency())
		if c.DriveID == hsm.CacheDriveID {
			continue
		}
		a := c.Attribution
		t.tape++
		t.locate += a.LocateSec
		t.xfer += a.TransferSec
		t.mount += a.MountSec
		t.queue += a.QueueSec
		t.robot += a.RobotSec
	}
	return nil
}

// library folds one library run's metrics; requests is how many
// requests reached the library.
func (t *tally) library(m tertiary.Metrics, drives, requests int) {
	t.libReqs += requests
	t.busy += m.DriveBusySec
	t.driveT += float64(drives) * m.Makespan
	t.m.Batches += m.Batches
	t.m.Mounts += m.Mounts
	t.m.Retries += m.Retries
	t.m.Replans += m.Replans
	t.m.Fallbacks += m.Fallbacks
	t.m.Rescued += m.Rescued
	t.m.ReplicaReads += m.ReplicaReads
	t.m.MaxQueueDepth = max(t.m.MaxQueueDepth, m.MaxQueueDepth)
}

// finish sorts the sojourns, seals the digest and fills the simulated
// per-layer metrics shared by every workload.
func (t *tally) finish() outcome {
	o := t.o
	sort.Float64s(o.sojourns)
	o.digest = t.h.Sum64()
	per := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	o.sim["drive.locate_s_per_req"] = per(t.locate, t.tape)
	o.sim["drive.transfer_s_per_req"] = per(t.xfer, t.tape)
	o.sim["drive.mount_s_per_req"] = per(t.mount, t.tape)
	o.sim["tertiary.queue_s_per_req"] = per(t.queue, t.tape)
	o.sim["tertiary.robot_wait_s_per_req"] = per(t.robot, t.tape)
	o.sim["tertiary.batches"] = float64(t.m.Batches)
	o.sim["tertiary.mounts_per_kreq"] = per(1000*float64(t.m.Mounts), t.libReqs)
	if t.driveT > 0 {
		o.sim["tertiary.drive_util"] = t.busy / t.driveT
	}
	o.sim["tertiary.max_queue_depth"] = float64(t.m.MaxQueueDepth)
	o.sim["sim.retries"] = float64(t.m.Retries)
	o.sim["sim.replans"] = float64(t.m.Replans)
	o.sim["sim.fallbacks"] = float64(t.m.Fallbacks)
	o.sim["tertiary.rescued"] = float64(t.m.Rescued)
	o.sim["tertiary.replica_reads"] = float64(t.m.ReplicaReads)
	o.sim["sojourn.samples"] = float64(len(o.sojourns))
	return o
}

// conserve checks that a run's terminal outcomes partition what it was
// offered.
func conserve(what string, offered, served, failed, rejected, shed int) error {
	if served+failed+rejected+shed != offered {
		return checkf("%s: served %d + failed %d + rejected %d + shed %d != offered %d",
			what, served, failed, rejected, shed, offered)
	}
	return nil
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailPercentile returns the highest of the candidate percentiles
// (in percent) that has at least minTail samples beyond it, with its
// value; ok is false when none has. sorted must be ascending.
func tailPercentile(sorted []float64, candidates ...float64) (p, v float64, ok bool) {
	best := -1.0
	for _, c := range candidates {
		if c > best && beyond(len(sorted), c) >= minTail {
			best = c
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, percentile(sorted, best), true
}

// rankOf is the nearest-rank index of percentile p among n samples.
func rankOf(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(k, 0), n-1)
}

// beyond counts the samples ranked above percentile p.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankOf(n, p)
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)]
}

// mean of values.
func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// median of unsorted values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
