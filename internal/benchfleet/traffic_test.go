package benchfleet

import (
	"context"
	"os"
	"testing"

	"repro/internal/router"
	"repro/internal/server"
)

// TestScenarioTrafficPinned pins the traffic the checked-in scenarios
// send on the in-process harness: per phase, how many requests each
// shard answered, all with 200. Placement is rendezvous hashing on the
// request body, so these counts change only when the request bytes,
// the seeds, or the router's placement change — a refactor of the load
// path must leave them exactly as they are.
func TestScenarioTrafficPinned(t *testing.T) {
	cases := []struct {
		file string
		want map[string][]int // phase -> requests answered by shard0..N-1
	}{
		{"../../scenarios/smoke.json", map[string][]int{
			"warm":    {18, 22},
			"kill":    {60, 0},
			"recover": {25, 15},
		}},
		{"../../scenarios/zipf-kill.json", map[string][]int{
			"warm":    {29, 73, 48},
			"kill":    {143, 107, 0},
			"recover": {34, 92, 24},
			"lattice": {38, 38, 24},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := DecodeScenario(data)
			if err != nil {
				t.Fatal(err)
			}
			fleet, err := NewHarnessFleet(sc, server.Config{}, router.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close() //nolint:errcheck
			res, err := Run(context.Background(), fleet, sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ok := func(status int) bool { return status == 200 }
			for _, p := range sc.Phases {
				want := tc.want[p.Name]
				if len(want) != sc.Shards {
					t.Fatalf("phase %s: no pinned counts", p.Name)
				}
				if n := res.Store.CountRequests(Query{Phase: p.Name}, nil); n != p.Requests {
					t.Errorf("phase %s: %d records, want %d", p.Name, n, p.Requests)
				}
				for i, shard := range fleet.ShardNames() {
					q := Query{Phase: p.Name, Shard: shard}
					all, good := res.Store.CountRequests(q, nil), res.Store.CountRequests(q, ok)
					if all != want[i] || good != want[i] {
						t.Errorf("phase %s %s: %d records (%d with 200), want %d all 200",
							p.Name, shard, all, good, want[i])
					}
				}
			}
		})
	}
}
