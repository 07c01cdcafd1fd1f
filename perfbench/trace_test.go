package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100] has children [10,30], [20,50] (overlapping) and
	// [90,120] (running past its end): they cover [10,50] and [90,100],
	// 50 of its 100. Child 2 [10,30] has a grandchild [12,18] that covers
	// 6 of its 20; the grandchild does not count against the root.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		{ID: 5, Parent: 2, Start: 12, End: 18},
		{ID: 6, Name: "lone", Start: 200, End: 260},
		{ID: 7, Parent: 6, Start: 150, End: 170}, // entirely before its parent
	}
	want := map[uint64]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6, 6: 60, 7: 20}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
}
