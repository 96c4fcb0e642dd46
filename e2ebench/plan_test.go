package main

import (
	"reflect"
	"testing"
	"time"
)

const (
	testFrom  = 300 * time.Millisecond
	testUntil = 20 * time.Second
)

// The plan — graph, frame contents, kill and restart schedule — is a
// pure function of the workload and the seed.
func TestPlanIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := makePlan(w, 7, testFrom, testUntil)
		b := makePlan(w, 7, testFrom, testUntil)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", w.name)
		}
		c := makePlan(w, 8, testFrom, testUntil)
		if reflect.DeepEqual(a.Kills, c.Kills) {
			t.Errorf("%s: seeds 7 and 8 gave the same kill schedule", w.name)
		}
	}
}

// Every incident can complete on its own: kills stay inside the
// window, a node is never killed again mid-incident, a hub and its
// dependents are never mid-incident together, the probe is never
// killed, and hubs and non-hubs both die.
func TestPlanKillsAreIndependentIncidents(t *testing.T) {
	for _, w := range workloads {
		for seed := uint64(1); seed <= 20; seed++ {
			p := makePlan(w, seed, testFrom, testUntil)
			if len(p.Kills) == 0 {
				t.Fatalf("%s seed %d: no kills", w.name, seed)
			}
			related := func(a, b uint32) bool {
				return a == b || p.HubOf[a] == int32(b) || p.HubOf[b] == int32(a)
			}
			hubKills := 0
			for i, k := range p.Kills {
				if k.At < testFrom || k.At+busy > testUntil {
					t.Errorf("%s seed %d: kill at %v outside [%v, %v)", w.name, seed, k.At, testFrom, testUntil-busy)
				}
				if k.Restart < k.At+restartDelay-restartJitter || k.Restart > k.At+restartDelay+restartJitter {
					t.Errorf("%s seed %d: restart %v after kill %v", w.name, seed, k.Restart-k.At, k.At)
				}
				if k.Node == p.Probe {
					t.Errorf("%s seed %d: the probe is killed", w.name, seed)
				}
				if p.HubOf[k.Node] < 0 && len(p.dependents(k.Node)) > 0 {
					hubKills++
				}
				for _, o := range p.Kills[i+1:] {
					if o.At-k.At >= busy {
						break
					}
					if related(o.Node, k.Node) {
						t.Errorf("%s seed %d: incidents of nodes %d and %d overlap", w.name, seed, k.Node, o.Node)
					}
				}
			}
			if hubKills == 0 || hubKills == len(p.Kills) {
				t.Errorf("%s seed %d: %d of %d kills hit hubs", w.name, seed, hubKills, len(p.Kills))
			}
		}
	}
}
