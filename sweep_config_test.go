package serpentine_test

import (
	"strings"
	"testing"

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

// tinyLibrarySweep shrinks a library sweep to one cartridge, one
// object, one rate and one request, keeping the axes cfg sets.
func tinyLibrarySweep(cfg tertiary.SweepConfig) tertiary.SweepConfig {
	cfg.TapeCount, cfg.Objects, cfg.Requests = 1, 1, 1
	cfg.RatesPerHour = []float64{60}
	return cfg
}
