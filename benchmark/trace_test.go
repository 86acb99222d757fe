package main

import "testing"

// A span's self time is its duration minus the part of its interval its
// children cover: overlapping children count once, a child is clipped to the
// parent, and grandchildren do not reduce the grandparent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "a.child", Start: 12, End: 18},
		{ID: 6, Name: "lone", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{
		1: 100 - (40 + 10), // [10,50) and [90,100)
		2: 20 - 6,
		3: 30,
		4: 30,
		5: 6,
		6: 60,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSpanStatsGroupsByName(t *testing.T) {
	stats := spanStats([]span{
		{ID: 1, Name: "x", Start: 0, End: 4000},
		{ID: 2, Name: "x", Start: 0, End: 2000},
		{ID: 3, Parent: 1, Name: "y", Start: 1000, End: 2000},
	})
	if len(stats) != 2 || stats[0].name != "x" || stats[1].name != "y" {
		t.Fatalf("spanStats = %+v, want groups x and y", stats)
	}
	if x := stats[0]; x.count != 2 || x.meanUS != 3 || x.selfUS != 2.5 {
		t.Errorf("x = %+v, want count 2, mean 3us, self 2.5us", x)
	}
}
