package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestHotPathsAllocationFree: the calls a scheduler makes for every
// candidate of every scheduling pass allocate nothing — the speed
// lookups and the capacity count.
func TestHotPathsAllocationFree(t *testing.T) {
	c := idlePaperCluster()
	h := c.Hosts[0]
	h.StartJob()
	var sink float64
	var n int
	cases := []struct {
		name string
		f    func()
	}{
		{"Model.SpeedFactor", func() { sink += HP720.SpeedFactor("fd3d") + HP710.SpeedFactor("unknown") }},
		{"Host.Speed", func() { sink += h.Speed("lb3d") }},
		{"Cluster.Capacity", func() { n += c.Capacity(DefaultPolicy()) }},
	}
	for _, tc := range cases {
		if a := testing.AllocsPerRun(100, tc.f); a != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, a)
		}
	}
	if sink == 0 || n == 0 {
		t.Fatal("hot-path calls returned nothing")
	}
}

// TestShortfallsDrawNothing: a Reserve or Migrate that falls short
// fails before drawing from the placement RNG, with its historical
// message. The scheduler's capacity skip depends on the first property.
func TestShortfallsDrawNothing(t *testing.T) {
	c := idlePaperCluster()
	res, err := c.Reserve("held", 20, DefaultPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	_, errR := c.Reserve("job-a", 6, DefaultPolicy(), rng)
	_, _, errM := c.Migrate(res, res.Hosts[:6], DefaultPolicy(), rng)
	for _, tc := range []struct {
		err  error
		want string
	}{
		{errR, `cluster: reserve 6 hosts for "job-a": only 5 reservable`},
		{errM, `cluster: migrate 6 ranks of "held": only 5 reservable hosts`},
	} {
		if tc.err == nil || tc.err.Error() != tc.want {
			t.Errorf("error %v, want %q", tc.err, tc.want)
		}
	}
	// The stream continues as a fresh one.
	if got, want := rng.Int63(), rand.New(rand.NewSource(1)).Int63(); got != want {
		t.Error("a shortfall drew from the placement RNG")
	}
}

// TestReservationsOwnTheirHosts: the scan's scratch slices never leak
// into a result — a later scan leaves earlier reservations and migration
// replacements untouched, and each result is exactly as long as its
// capacity.
func TestReservationsOwnTheirHosts(t *testing.T) {
	c := idlePaperCluster()
	rng := rand.New(rand.NewSource(7))
	a, err := c.Reserve("a", 4, DefaultPolicy(), rng)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]*Host(nil), a.Hosts...)
	c.Reclaim(a.Hosts[2])
	_, repl, err := c.Migrate(a, []*Host{a.Hosts[2]}, DefaultPolicy(), rng)
	if err != nil {
		t.Fatal(err)
	}
	replBefore := repl[0]
	if _, err := c.Reserve("b", 10, DefaultPolicy(), rng); err != nil {
		t.Fatal(err)
	}
	for i, h := range a.Hosts {
		want := before[i]
		if i == 2 {
			want = replBefore
		}
		if h != want || h.Owner() != "a" || h.Assigned() != i {
			t.Errorf("reservation a slot %d changed to %s (owner %q rank %d)", i, h.Name, h.Owner(), h.Assigned())
		}
	}
	if repl[0] != replBefore {
		t.Error("migration replacement slice changed under a later scan")
	}
	if cap(a.Hosts) != 4 || cap(repl) != 1 {
		t.Errorf("capacities %d and %d, want exact lengths 4 and 1", cap(a.Hosts), cap(repl))
	}
}

// referenceOrder is the reservation order the tier partition replaced:
// each group shuffled (or name-sorted), then stably sorted by model
// preference, idle group first.
func referenceOrder(idle, active []*Host, rng *rand.Rand) []*Host {
	order := func(hosts []*Host) {
		if rng != nil {
			rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
		} else {
			sort.SliceStable(hosts, func(i, j int) bool { return hosts[i].Name < hosts[j].Name })
		}
		sort.SliceStable(hosts, func(i, j int) bool {
			return modelPreference(hosts[i].Model) < modelPreference(hosts[j].Model)
		})
	}
	order(idle)
	order(active)
	return append(idle, active...)
}

// TestScanMatchesReferenceOrder: on random pools the scan yields the
// same host order as the stable-sort formulation and leaves the RNG in
// the same state, with and without an RNG.
func TestScanMatchesReferenceOrder(t *testing.T) {
	gen := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		c := &Cluster{}
		for i, n := 0, gen.Intn(40); i < n; i++ {
			h := NewHost(fmt.Sprintf("h%02d", gen.Intn(100)), Model(gen.Intn(3)))
			if gen.Intn(3) == 0 {
				h.TouchUser() // active-user group
			}
			if gen.Intn(5) == 0 {
				h.Assign(0)
			}
			c.Hosts = append(c.Hosts, h)
		}
		seed := gen.Int63()
		for _, seeded := range []bool{true, false} {
			var rngA, rngB *rand.Rand
			if seeded {
				rngA, rngB = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			}
			idle, active := c.reservable(DefaultPolicy())
			want := referenceOrder(append([]*Host(nil), idle...), append([]*Host(nil), active...), rngA)
			got := c.scan(DefaultPolicy(), rngB)
			if len(got) != len(want) {
				t.Fatalf("trial %d: scan has %d hosts, want %d", trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d seeded=%v: position %d is %s, want %s", trial, seeded, i, got[i].Name, want[i].Name)
				}
			}
			if seeded && rngA.Int63() != rngB.Int63() {
				t.Fatalf("trial %d: RNG streams diverged", trial)
			}
		}
	}
}
