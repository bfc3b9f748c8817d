package locate

import (
	"sync"

	"serpentine/internal/geometry"
)

// Cartridge is one synthetic cartridge and the models derived from
// it. It is immutable and safe for concurrent use. Its models cost
// O(sections), so the whole cartridge is about 190 KB on a DLT4000.
type Cartridge struct {
	tape  *geometry.Tape
	model *Model
	truth *Model
}

// Tape returns the generated cartridge.
func (c *Cartridge) Tape() *geometry.Tape { return c.tape }

// Model returns the model characterized from the tape's own key
// points, as the paper's Figure 9 shows it must be.
func (c *Cartridge) Model() *Model { return c.model }

// Truth returns the drive emulator's ground truth: the tape's exact
// geometry under its hidden personality.
func (c *Cartridge) Truth() *Model { return c.truth }

type cartridgeKey struct {
	params geometry.Params
	serial int64
}

// cartridges holds every Cartridge the process builds: one per
// distinct (profile, serial) pair, never evicted.
var cartridges sync.Map // cartridgeKey -> *Cartridge

// Load returns the shared cartridge for (params, serial), building it
// on first use. Generate is deterministic, so the pair identifies a
// tape completely. Only successful builds are stored, and Generate
// rejects NaN fields, whose keys would never match themselves.
func Load(params geometry.Params, serial int64) (*Cartridge, error) {
	k := cartridgeKey{params, serial}
	if c, ok := cartridges.Load(k); ok {
		return c.(*Cartridge), nil
	}
	c, err := build(params, serial)
	if err != nil {
		return nil, err
	}
	got, _ := cartridges.LoadOrStore(k, c)
	return got.(*Cartridge), nil
}

// build generates a cartridge and derives its models, outside the
// intern.
func build(params geometry.Params, serial int64) (*Cartridge, error) {
	tape, err := geometry.Generate(params, serial)
	if err != nil {
		return nil, err
	}
	model, err := FromKeyPoints(tape.KeyPoints())
	if err != nil {
		return nil, err
	}
	p := tape.Params()
	rs, ss, oh := tape.Personality()
	p.ReadSecPerSection *= 1 + rs
	p.ScanSecPerSection *= 1 + ss
	p.OverheadSec += oh
	if p.OverheadSec < 0 {
		p.OverheadSec = 0
	}
	truth := NewModel(tape.View().WithParams(p))
	return &Cartridge{tape: tape, model: model, truth: truth}, nil
}
