// Package cli parses the comma-separated list flags the sweep commands
// share. Range checks stay with the sweeps, which reject a bad value
// by field name; the only bound here is Ints' lower limit, for list
// elements where zero would select a default.
package cli

import (
	"fmt"
	"strconv"
	"strings"
)

// Floats parses a comma-separated list of numbers; "" is an empty list.
func Floats(s string) ([]float64, error) {
	return list(s, func(f string) (float64, bool) {
		v, err := strconv.ParseFloat(f, 64)
		return v, err == nil
	})
}

// Ints parses a comma-separated list of integers no smaller than min;
// "" is an empty list.
func Ints(s string, min int) ([]int, error) {
	return list(s, func(f string) (int, bool) {
		v, err := strconv.Atoi(f)
		return v, err == nil && v >= min
	})
}

func list[V any](s string, parse func(string) (V, bool)) ([]V, error) {
	if s == "" {
		return nil, nil
	}
	var out []V
	for _, f := range strings.Split(s, ",") {
		v, ok := parse(strings.TrimSpace(f))
		if !ok {
			return nil, fmt.Errorf("value %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
