package rframe

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// inferColumnTwoPass is the original inference: probe every value as int
// and float, then parse the winning kind again to materialise it. The
// single-pass inferColumn must agree with it exactly.
func inferColumnTwoPass(name string, vals []string) *Column {
	isInt, isFloat := true, true
	for _, v := range vals {
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			isInt = false
		}
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			isFloat = false
		}
		if !isInt && !isFloat {
			break
		}
	}
	switch {
	case isInt:
		out := make([]int64, len(vals))
		for i, v := range vals {
			out[i], _ = strconv.ParseInt(v, 10, 64)
		}
		return &Column{Name: name, Kind: Int, I: out}
	case isFloat:
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i], _ = strconv.ParseFloat(v, 64)
		}
		return &Column{Name: name, Kind: Float, F: out}
	default:
		return &Column{Name: name, Kind: String, S: vals}
	}
}

func sameColumn(a, b *Column) bool {
	bits := func(f []float64) []uint64 {
		out := make([]uint64, len(f))
		for i, v := range f {
			out[i] = math.Float64bits(v) // NaN and -0 compare by bits
		}
		return out
	}
	return a.Name == b.Name && a.Kind == b.Kind &&
		slices.Equal(a.I, b.I) && slices.Equal(bits(a.F), bits(b.F)) && slices.Equal(a.S, b.S) &&
		(a.I == nil) == (b.I == nil) && (a.F == nil) == (b.F == nil) && (a.S == nil) == (b.S == nil)
}

func TestInferColumnMatchesTwoPass(t *testing.T) {
	cases := []struct {
		name string
		vals string // comma-separated cells
		want Kind
	}{
		{"ints", "1,-2,+3,007,9223372036854775807,-9223372036854775808", Int},
		{"int64 overflow", "1,2,9223372036854775808", Float},
		{"overflow first", "-9223372036854775809,4", Float},
		{"float overflow", "1,2.5,1e400", String},
		{"float overflow first", "1e400,1", String},
		{"nan and inf", "NaN,Inf,-Inf,+Inf,infinity,1", Float},
		{"ints then nan", "1,2,NaN", Float},
		{"negative zero carried", "-0,0,-00,+0,0.5", Float},
		{"negative zero int", "-0,3", Int},
		{"hex float", "1,0x1p4", Float},
		{"underscores", "1_000,2", Float},
		{"empty cell", "1,,3", String},
		{"empty cell after floats", "1.5,,3", String},
		{"all empty", ",", String},
		{"mixed", "1,2.5,abc,4", String},
		{"mixed float first", "2.5,1,3", Float},
		{"string first", "abc,1,2", String},
		{"big ints as float", "1.5,123456789012345678,9007199254740993", Float},
		{"spaces", " 1,2", String},
	}
	for _, c := range cases {
		vals := strings.Split(c.vals, ",")
		got, want := inferColumn("c", vals), inferColumnTwoPass("c", vals)
		if got.Kind != c.want {
			t.Errorf("%s: kind %v, want %v", c.name, got.Kind, c.want)
		}
		if !sameColumn(got, want) {
			t.Errorf("%s: single pass %+v, two pass %+v", c.name, got, want)
		}
	}
	for _, vals := range [][]string{nil, {}} {
		if got, want := inferColumn("c", vals), inferColumnTwoPass("c", vals); got.Kind != Int || got.Len() != 0 || !sameColumn(got, want) {
			t.Errorf("empty column: %+v, want %+v", got, want)
		}
	}
}
