package cli

import (
	"reflect"
	"testing"
)

func TestLists(t *testing.T) {
	if got, err := Floats(" 60, 120.5,240 "); err != nil || !reflect.DeepEqual(got, []float64{60, 120.5, 240}) {
		t.Fatalf("Floats = %v, %v", got, err)
	}
	if got, err := Ints("1, 2,4", 1); err != nil || !reflect.DeepEqual(got, []int{1, 2, 4}) {
		t.Fatalf("Ints = %v, %v", got, err)
	}
	if got, err := Floats(""); err != nil || got != nil {
		t.Fatalf(`Floats("") = %v, %v, want an empty list`, got, err)
	}
	for _, bad := range []func() error{
		func() error { _, err := Floats("1,x"); return err },
		func() error { _, err := Floats("1,,2"); return err },
		func() error { _, err := Ints("1,0", 1); return err },
		func() error { _, err := Ints("1.5", 0); return err },
	} {
		if bad() == nil {
			t.Error("malformed list accepted")
		}
	}
}
