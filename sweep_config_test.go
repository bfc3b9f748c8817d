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
	} {
		err := c.run()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s with negative %s: err = %v, want an error naming %s", c.sweep, c.field, err, c.field)
		}
	}
}
