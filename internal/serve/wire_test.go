package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// The request types as json.Unmarshal's targets: defined types over the
// same structs, without the request types' methods, so encoding/json
// decodes them by reflection alone.
type (
	solveRequestRef SolveRequest
	planRequestRef  PlanRequest
)

// FuzzDecodeRequest checks the request decoders against encoding/json. For
// any body, each decoder rejects it exactly when json.Unmarshal does, and
// otherwise returns what json.Unmarshal returns, every float bit for bit,
// with one exception: a null element of a number array, which the decoder
// rejects. Each null the decoder names must be one; the body is then
// checked again with that null written as 0, until the decoder names none.
// (Decoding into arrays of *float64 instead cannot tell every null: with a
// repeated key, encoding/json reuses the first array, so in
// {"charges":[null],"charges":[1]} the null leaves no nil behind.)
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		solve := withoutNulls(t, body, func(b []byte) error { _, err := decodeSolveRequest(b); return err })
		got, err := decodeSolveRequest(solve)
		var ref solveRequestRef
		refErr := json.Unmarshal(solve, &ref)
		want := SolveRequest(ref)
		agree(t, "solve", solve, err, refErr, func() bool {
			return reflect.DeepEqual(got, want) && sameGeometryBits(got.GeometrySpec, want.GeometrySpec) &&
				sameBits(got.Charges, want.Charges)
		})

		plan := withoutNulls(t, body, func(b []byte) error { _, err := decodePlanRequest(b); return err })
		gotPlan, err := decodePlanRequest(plan)
		var refPlan planRequestRef
		refErr = json.Unmarshal(plan, &refPlan)
		wantPlan := PlanRequest(refPlan)
		agree(t, "plan", plan, err, refErr, func() bool {
			return reflect.DeepEqual(gotPlan, wantPlan) && sameGeometryBits(gotPlan.GeometrySpec, wantPlan.GeometrySpec)
		})
	})
}

// withoutNulls returns a copy of body with every null element decode
// rejects written as 0, checking that each is a null literal after '[' or
// ','.
func withoutNulls(t *testing.T, body []byte, decode func([]byte) error) []byte {
	t.Helper()
	body = bytes.Clone(body)
	for {
		var null *nullElementError
		if !errors.As(decode(body), &null) {
			return body
		}
		at := null.offset
		before := bytes.TrimRight(body[:at], " \t\n\r")
		if !bytes.HasPrefix(body[at:], []byte("null")) || len(before) == 0 ||
			(before[len(before)-1] != '[' && before[len(before)-1] != ',') {
			t.Fatalf("%v at offset %d, where the body holds %.20q", null, at, body[at:])
		}
		copy(body[at:], "0   ")
	}
}

// agree fails t unless the decoder and json.Unmarshal both reject the body
// or both accept it with equal results.
func agree(t *testing.T, what string, body []byte, err, refErr error, equal func() bool) {
	t.Helper()
	switch {
	case err == nil && refErr != nil:
		t.Fatalf("%s: decoded a body json.Unmarshal rejects (%v): %.200q", what, refErr, body)
	case err != nil && refErr == nil:
		t.Fatalf("%s: rejected a body json.Unmarshal accepts (%v): %.200q", what, err, body)
	case err == nil && !equal():
		t.Fatalf("%s: decoded differently from json.Unmarshal: %.200q", what, body)
	}
}

// sameGeometryBits compares the coordinate arrays of two geometries bit
// for bit (reflect.DeepEqual takes -0 for +0).
func sameGeometryBits(a, b GeometrySpec) bool {
	return samePointsBits(a.Targets, b.Targets) && samePointsBits(a.Sources, b.Sources)
}

func samePointsBits(a, b *PointsSpec) bool {
	if a == nil || b == nil {
		return a == b
	}
	return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) && sameBits(a.Z, b.Z)
}

// sameBits reports whether a and b hold the same float bits and are both
// nil or both not.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// decodeSeeds are FuzzDecodeRequest's corpus: FuzzSolveHandler's bodies,
// then the corners of encoding/json's rules.
func decodeSeeds(tb testing.TB) [][]byte {
	encode := func(v any) []byte { return mustJSON(tb, v) }
	s, q := testSet(12, 71)
	huge := make([]float64, len(q))
	for i := range huge {
		huge[i] = 1e308
	}
	geom := GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(testParams())}
	seeds := [][]byte{
		encode(SolveRequest{Plan: "k", Charges: q}),
		encode(SolveRequest{Plan: "k", Kernel: &KernelSpec{Name: "yukawa", Kappa: 0.5}, Charges: q}),
		encode(SolveRequest{Plan: "k", Kernel: &KernelSpec{Name: "multiquadric", C: 0.3}, Charges: q}),
		encode(SolveRequest{Plan: "k", Charges: huge}),
		encode(SolveRequest{Plan: "k", Charges: q[:9]}),
		encode(SolveRequest{Plan: "k", Kernel: &KernelSpec{Name: "gaussian"}, Charges: q}),
		encode(SolveRequest{Plan: "deadbeef", Charges: q}),
		encode(SolveRequest{GeometrySpec: geom, Charges: q}),
		encode(PlanRequest{GeometrySpec: geom}),
		encode(PlanRequest{GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Sources: pointsSpec(s)}}),
		[]byte(`{"plan":`),
		[]byte(`{"charges":[1]}`),
	}
	for _, b := range []string{
		// Escaped and case-folded keys: ſ (U+017F) folds to s and the
		// Kelvin sign (U+212A) to k.
		`{"\u0063harges":[1,2],"pl\u0061n":"k\u00e9"}`,
		`{"charges":[1],"\u212aernel":{"name":"yukawa"},"\u017fources":{"x":[2]}}`,
		`{"CHARGES":[1],"Plan":"k","KERNEL":{"NAME":"yukawa","Kappa":2}}`,
		`{"ſources":{"X":[1],"y":[2],"Z":[3]},"targets":{"x":[4],"y":[5],"z":[6]}}`,
		`{"Kernel":{"name":"gaussian","sigma":1},"charges":[3]}`,
		`{"ſources":{"x":[1]}}`,
		// Repeated keys: arrays replace, objects merge, null clears.
		`{"charges":[5,6],"charges":[7]}`,
		`{"charges":[5,6],"charges":[null]}`,
		`{"charges":[null],"charges":[1]}`,
		`{"targets":{"x":[1]},"targets":{"y":[2]}}`,
		`{"targets":{"x":[1]},"targets":null,"targets":{"z":[3]}}`,
		`{"params":{"theta":0.5},"params":{"degree":3},"kernel":{"name":"yukawa"},"kernel":null}`,
		`{"plan":"a","plan":null,"plan":"b"}`,
		// Nulls, empty arrays and wrong types.
		`{"charges":[1,null,2]}`,
		`{"targets":{"x":[1,2],"y":[null,2],"z":[1,2]}}`,
		`{"charges":null,"targets":null,"sources":null}`,
		`{"charges":[],"targets":{"x":[ ]}}`,
		`{"charges":[1,"2"]}`,
		`{"charges":[[1]]}`,
		`{"charges":{"0":1}}`,
		`{"targets":[1,2,3]}`,
		`{"params":{"degree":1.5}}`,
		`{"plan":7}`,
		// Nested unknown values.
		`{"extra":{"a":[1,{"b":"]}\"["}],"c":null},"charges":[1]}`,
		`{"targets":{"w":[[[]]],"x":[1],"v":"\ud800"},"meta":[true,false,null,-1.5e3]}`,
		// Numbers: signed zeros, underflow, overflow and what JSON's
		// grammar rejects.
		`{"charges":[-0,0,-0.0,0e0,-0E-0]}`,
		`{"charges":[1e-400,-1e-400,4.9e-324,2.2250738585072014e-308]}`,
		`{"charges":[1e400]}`,
		`{"charges":[-1e400]}`,
		`{"charges":[01]}`,
		`{"charges":[1.]}`,
		`{"charges":[.5]}`,
		`{"charges":[+1]}`,
		`{"charges":[1e]}`,
		`{"charges":[0x10]}`,
		`{"charges":[NaN]}`,
		`{"charges":[1,]}`,
		`{"charges":[,1]}`,
		`{"charges":[1 2]}`,
		`{"charges":[123456789012345678901234567890123456789.5e-7]}`,
		// Whitespace, one value per body and the top level.
		" \t\n\r{ \"charges\" : [ 1 , 2 ] , \"plan\" : \"k\" } \n",
		`{"charges":[1]}xyz`,
		`{"charges":[1]}{"charges":[2]}`,
		`{"charges":[1]}]`,
		"\ufeff{\"charges\":[1]}",
		`null`,
		` null `,
		`nul`,
		`[]`,
		`"charges"`,
		`{}`,
		``,
		`{"charges":[1],}`,
		`{,"charges":[1]}`,
		`{"charges" [1]}`,
		"{\"char\x01ges\":[1]}",
		"{\"charges\":[1],\"k\xffey\":\"v\xfe\"}",
	} {
		seeds = append(seeds, []byte(b))
	}
	// One container past encoding/json's nesting limit (TestDecodeRequestDepth
	// pins both sides of it; a 20 KB seed slows the fuzzer's minimizing).
	return append(seeds, nested(nestPrefixes[0], maxDepth+1))
}

var nestPrefixes = []string{`{"u":`, `{"targets":{"u":`, `{"kernel":{"u":`}

// nested returns prefix, then arrays nested until the innermost is depth
// containers deep, counting prefix's objects, then every bracket closed.
func nested(prefix string, depth int) []byte {
	open := strings.Count(prefix, "{")
	n := depth - open
	return []byte(prefix + strings.Repeat("[", n) + strings.Repeat("]", n) + strings.Repeat("}", open))
}

// TestDecodeRequestDepth pins encoding/json's nesting limit of 10000
// containers: a body at it decodes, one a container deeper does not.
func TestDecodeRequestDepth(t *testing.T) {
	for _, prefix := range nestPrefixes {
		for _, depth := range []int{maxDepth, maxDepth + 1} {
			body := nested(prefix, depth)
			_, err := decodeSolveRequest(body)
			var ref solveRequestRef
			refErr := json.Unmarshal(body, &ref)
			if ok := depth <= maxDepth; (err == nil) != ok || (refErr == nil) != ok {
				t.Errorf("%s at depth %d: decoder %v, json.Unmarshal %v", prefix, depth, err, refErr)
			}
		}
	}
}

// TestDecodeRequestAllocs pins the decoder's allocations to a count that
// does not grow with the arrays: each is allocated once, at its length,
// and parsing its numbers allocates nothing.
func TestDecodeRequestAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		s, q := testSet(n, 73)
		body, err := json.Marshal(SolveRequest{
			Plan:         "k",
			GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(testParams())},
			Kernel:       &KernelSpec{Name: "yukawa", Kappa: 0.5},
			Charges:      q,
		})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := decodeSolveRequest(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(2000), allocs(20000); small != large {
		t.Fatalf("%v allocations decoding 2000 points and charges, %v decoding 20000", small, large)
	}
}
