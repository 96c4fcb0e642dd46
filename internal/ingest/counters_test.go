package ingest

import (
	"reflect"
	"testing"
)

// TestStatsCounterNamesComplete pins Fields and the names to the
// Counters declaration: Fields()[i] is field i, so every counter is
// listed once and in the order the WAL delta record stores them, and
// each field's name is distinct and resolves through Counter to that
// field alone. The gauges of Stats stay unnamed.
func TestStatsCounterNamesComplete(t *testing.T) {
	rt := reflect.TypeFor[Counters]()
	if rt.NumField() != NumCounters {
		t.Fatalf("Counters has %d fields, NumCounters is %d", rt.NumField(), NumCounters)
	}
	names := CounterNames()
	if len(names) != NumCounters {
		t.Fatalf("CounterNames lists %d names, want %d", len(names), NumCounters)
	}
	seen := make(map[string]bool, len(names))
	var c Counters
	for i, f := range c.Fields() {
		field := rt.Field(i)
		if f != reflect.ValueOf(&c).Elem().Field(i).Addr().Interface() {
			t.Fatalf("Fields()[%d] is not field %d (%s)", i, i, field.Name)
		}
		if field.Type.Kind() != reflect.Uint64 {
			t.Fatalf("counter %s is a %s, want uint64", field.Name, field.Type)
		}
		if names[i] == "" || seen[names[i]] {
			t.Fatalf("counter %s has an empty or duplicate name %q", field.Name, names[i])
		}
		seen[names[i]] = true

		var one Stats
		reflect.ValueOf(&one.Counters).Elem().Field(i).SetUint(42)
		for j, name := range names {
			v, ok := one.Counter(name)
			if !ok {
				t.Fatalf("Counter(%q) unknown", name)
			}
			if (i == j) != (v == 42) {
				t.Fatalf("Counter(%q) = %d with only %s set", name, v, field.Name)
			}
		}
	}

	if _, ok := (Stats{}).Counter("nodes"); ok {
		t.Fatal("gauge field resolved as a counter")
	}
	if _, ok := (Stats{}).Counter("no-such-counter"); ok {
		t.Fatal("unknown name resolved")
	}
}
