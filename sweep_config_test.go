package serpentine_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"serpentine/internal/core"
	"serpentine/internal/fleet"
	"serpentine/internal/hsm"
	"serpentine/internal/server"
	"serpentine/internal/sim"
	"serpentine/internal/tertiary"
)

// Every cell sweep documents its integer sizes as "0 selects <default>".
// Only the exact zero is a default: a negative size must fail with an
// error naming the field, not run the default under a header that
// prints the negative value.
func TestSweepsRejectNegativeSizes(t *testing.T) {
	for _, c := range []struct {
		sweep string
		field string
		run   func() error
	}{
		{"sim.ChaosSweep", "BatchSize", func() error {
			_, err := sim.ChaosSweep(sim.ChaosConfig{BatchSize: -8})
			return err
		}},
		{"server.Sweep", "Requests", func() error {
			_, err := server.Sweep(server.SweepConfig{Requests: -5})
			return err
		}},
		{"tertiary.Sweep", "TapeCount", func() error {
			_, err := tertiary.Sweep(tertiary.SweepConfig{TapeCount: -1})
			return err
		}},
		{"tertiary.OutageSweep", "Drives", func() error {
			_, err := tertiary.OutageSweep(tertiary.OutageConfig{Drives: -2})
			return err
		}},
		{"hsm.Sweep", "Workers", func() error {
			_, err := hsm.Sweep(hsm.SweepConfig{Workers: -1})
			return err
		}},
		{"fleet.Sweep", "Requests", func() error {
			_, err := fleet.Sweep(fleet.SweepConfig{Requests: -5})
			return err
		}},
		// List-axis elements and the store and run configs they reach:
		// a negative drive or shard count once ran as 1, a negative
		// batch limit or queue cap as no cap.
		{"tertiary.Sweep DriveCounts", "Drives", func() error {
			_, err := tertiary.Sweep(tinyLibrarySweep(tertiary.SweepConfig{DriveCounts: []int{-1}}))
			return err
		}},
		{"tertiary.Sweep BatchLimits", "BatchLimit", func() error {
			_, err := tertiary.Sweep(tinyLibrarySweep(tertiary.SweepConfig{BatchLimits: []int{-1}}))
			return err
		}},
		{"tertiary.New", "QueueCap", func() error {
			cat := tertiary.NewCatalog()
			if err := cat.Put(tertiary.Object{ID: "a", Tape: 1}); err != nil {
				return err
			}
			_, err := tertiary.New(tertiary.Config{Tapes: []int64{1}, QueueCap: -1}, cat)
			return err
		}},
		{"fleet.Sweep ShardCounts", "Shards", func() error {
			_, err := fleet.Sweep(fleet.SweepConfig{ShardCounts: []int{-2}})
			return err
		}},
		{"fleet.New", "TapeCount", func() error {
			_, err := fleet.New(fleet.StoreConfig{TapeCount: -8})
			return err
		}},
		{"fleet.New", "Objects", func() error {
			_, err := fleet.New(fleet.StoreConfig{TapeCount: 1, Objects: -1})
			return err
		}},
		{"fleet.New", "ObjectSegments", func() error {
			_, err := fleet.New(fleet.StoreConfig{TapeCount: 1, Objects: 1, ObjectSegments: -32})
			return err
		}},
		{"fleet.New", "Replicas", func() error {
			_, err := fleet.New(fleet.StoreConfig{TapeCount: 1, Objects: 1, Replicas: -1})
			return err
		}},
		{"fleet.Run", "Drives", func() error {
			f, err := fleet.New(fleet.StoreConfig{TapeCount: 1, Objects: 1})
			if err != nil {
				return err
			}
			_, _, err = f.Run(fleet.RunConfig{Drives: -1}, nil)
			return err
		}},
	} {
		err := c.run()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s with negative %s: err = %v, want an error naming %s", c.sweep, c.field, err, c.field)
		}
	}
}

// A Poisson rate must be positive and finite. +Inf once ran every
// cell as one batch arriving at time 0 without an error, and NaN
// failed only later with "request 0 arrives at NaN". Each sweep must
// reject both up front with an error naming the rate.
func TestSweepsRejectNonFiniteRates(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1)} {
		rates := []float64{rate}
		for _, c := range []struct {
			sweep string
			run   func() error
		}{
			{"tertiary.Sweep", func() error {
				cfg := tinyLibrarySweep(tertiary.SweepConfig{})
				cfg.RatesPerHour = rates
				_, err := tertiary.Sweep(cfg)
				return err
			}},
			{"fleet.Sweep", func() error {
				_, err := fleet.Sweep(fleet.SweepConfig{
					TapeCount: 1, Objects: 1, Requests: 1, RatesPerHour: rates,
					ShardCounts: []int{1}, Routers: []fleet.Router{fleet.RoundRobin{}},
				})
				return err
			}},
			{"hsm.Sweep", func() error {
				_, err := hsm.Sweep(hsm.SweepConfig{
					TapeCount: 1, Objects: 1, Requests: 1, RatesPerHour: rates,
					CacheBytes: []int64{0},
				})
				return err
			}},
			{"server.Sweep", func() error {
				_, err := server.Sweep(server.SweepConfig{
					Requests: 1, RatesPerHour: rates,
					Policies: server.AllPolicies()[:1], Schedulers: []core.Scheduler{core.Sort{}},
				})
				return err
			}},
		} {
			err := c.run()
			want := fmt.Sprintf("rate %g", rate)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with rate %g: err = %v, want an error naming %q", c.sweep, rate, err, want)
			}
		}
	}
}

// A RetryPolicy once ran every field <= 0 as its default, so
// MaxRetries -1 ran as 3, and a NaN or +Inf backoff passed. Every
// sweep that carries a policy must reject such a field by name.
func TestSweepsRejectBadRetryPolicies(t *testing.T) {
	for _, c := range []struct {
		field string
		pol   sim.RetryPolicy
	}{
		{"MaxRetries", sim.RetryPolicy{MaxRetries: -1}},
		{"MaxReplans", sim.RetryPolicy{MaxReplans: -1}},
		{"PlanningBudgetOps", sim.RetryPolicy{PlanningBudgetOps: -1}},
		{"BackoffBaseSec", sim.RetryPolicy{BackoffBaseSec: math.NaN()}},
		{"BackoffBaseSec", sim.RetryPolicy{BackoffBaseSec: math.Inf(1)}},
		{"BackoffMaxSec", sim.RetryPolicy{BackoffMaxSec: -1}},
		{"RequestTimeoutSec", sim.RetryPolicy{RequestTimeoutSec: math.NaN()}},
	} {
		for _, s := range []struct {
			sweep string
			run   func() error
		}{
			{"tertiary.Sweep", func() error {
				_, err := tertiary.Sweep(tinyLibrarySweep(tertiary.SweepConfig{Retry: c.pol}))
				return err
			}},
			{"fleet.Sweep", func() error {
				_, err := fleet.Sweep(fleet.SweepConfig{
					TapeCount: 1, Objects: 1, Requests: 1, RatesPerHour: []float64{60},
					ShardCounts: []int{1}, Routers: []fleet.Router{fleet.RoundRobin{}}, Retry: c.pol,
				})
				return err
			}},
			{"server.Sweep", func() error {
				_, err := server.Sweep(server.SweepConfig{
					Requests: 1, RatesPerHour: []float64{60}, Retry: c.pol,
					Policies: server.AllPolicies()[:1], Schedulers: []core.Scheduler{core.Sort{}},
				})
				return err
			}},
		} {
			err := s.run()
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s with %s %+v: err = %v, want an error naming %s", s.sweep, c.field, c.pol, err, c.field)
			}
		}
	}
}

// tinyLibrarySweep shrinks a library sweep to one cartridge, one
// object, one rate and one request, keeping the axes cfg sets.
func tinyLibrarySweep(cfg tertiary.SweepConfig) tertiary.SweepConfig {
	cfg.TapeCount, cfg.Objects, cfg.Requests = 1, 1, 1
	cfg.RatesPerHour = []float64{60}
	return cfg
}
