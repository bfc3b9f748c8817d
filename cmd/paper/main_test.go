package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// The two cheapest committed paper files, regenerated in process, so
// `go test ./...` catches a drift in them without the determinism
// script.
func TestCommittedFiguresRegenerate(t *testing.T) {
	for _, c := range []struct {
		file string
		args []string
	}{
		{"fig1.txt", []string{"-fig", "1", "-tracks", "0:6", "-step", "97"}},
		{"sec3.txt", []string{"-fig", "sec3"}},
	} {
		want, err := os.ReadFile("../../results/" + c.file)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run(c.args, &got); err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: regenerated output differs from the committed file", c.file)
		}
	}
}

// Every value below was once clamped or ignored: a divisor or step
// under 1 ran as 1, a trial count under 1 ran as 4, a negative worker
// count ran on every core. Each must now be an error, as must a flag
// the figure does not read and an unknown figure.
func TestRunRejects(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "4", "-divisor", "0", "-lengths", "1", "-algs", "FIFO"}, "-divisor 0"},
		{[]string{"-fig", "6", "-divisor", "-3", "-lengths", "1", "-algs", "FIFO"}, "-divisor -3"},
		{[]string{"-fig", "1", "-step", "0", "-tracks", "0:1"}, "-step 0"},
		{[]string{"-fig", "8", "-trials", "0"}, "-trials 0"},
		{[]string{"-fig", "9", "-trials", "-1"}, "-trials -1"},
		{[]string{"-fig", "6", "-optmax", "0", "-lengths", "1", "-algs", "OPT"}, "-optmax 0"},
		{[]string{"-fig", "4", "-workers", "-1", "-lengths", "1", "-algs", "FIFO"}, "-workers -1"},
		{[]string{"-fig", "4", "-lengths", "8,0"}, "-lengths"},
		{[]string{"-fig", "4", "-lengths", "8,x"}, "-lengths"},
		{[]string{"-fig", "7", "-targets", "0.5,,0.9"}, "-targets"},
		{[]string{"-fig", "1", "-tracks", "6:0"}, "-tracks"},
		{[]string{"-fig", "1", "-src", "-1"}, "source segment"},
		{[]string{"-fig", "8", "-divisor", "100"}, "-divisor does not apply"},
		{[]string{"-fig", "1", "-seed", "7"}, "-seed does not apply"},
		{[]string{"-fig", "3"}, "unknown -fig"},
		{[]string{"-fig", "1", "extra"}, "unexpected argument"},
		{nil, "unknown -fig"},
	} {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", c.args, err, c.want)
		}
		if out.Len() > 0 {
			t.Errorf("run(%q) wrote %d bytes before failing", c.args, out.Len())
		}
	}
}
