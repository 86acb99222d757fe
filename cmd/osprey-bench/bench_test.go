package main

import "testing"

// TestMedianResults: several result lines of one benchmark (go test -count)
// reduce to their median, ns/op, B/op and allocs/op each on its own; a
// benchmark with one line keeps it, and lines that are not results are
// skipped.
func TestMedianResults(t *testing.T) {
	out := `goos: linux
BenchmarkPipelinedSubmitParallel8-2   	   10000	     31000 ns/op	    1500 B/op	      19 allocs/op
BenchmarkPipelinedSubmitParallel8-2   	   10000	     29000 ns/op	    1520 B/op	      18 allocs/op
BenchmarkPipelinedSubmitParallel8-2   	   10000	     35000 ns/op	    1490 B/op	      19 allocs/op
BenchmarkPipelinedSubmitParallel8-2   	   10000	     30000 ns/op	    1510 B/op	      19 allocs/op
BenchmarkPipelinedSubmitParallel8-2   	   10000	     40000 ns/op	    1480 B/op	      18 allocs/op
BenchmarkWireCodec-2   	 1000000	      1234 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	osprey	12.345s
`
	got := medianResults(out)
	want := map[string]benchResult{
		"BenchmarkPipelinedSubmitParallel8": {NsOp: 31000, BOp: 1500, AllocsOp: 19},
		"BenchmarkWireCodec":                {NsOp: 1234},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d benchmarks %+v, want %d", len(got), got, len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}
