package server

import (
	"fmt"
	"reflect"
	"testing"
)

// TestLRU pins the one LRU behind the response cache, the session store,
// and the trace store: recency on get and put, update in place, eviction
// order, the capacity bound under churn, and the hit/miss/eviction tallies.
func TestLRU(t *testing.T) {
	// An op with an empty val is a get; otherwise a put.
	type op struct{ key, val string }
	var churn []op
	for i := 0; i < 100; i++ {
		churn = append(churn, op{fmt.Sprint("k", i), fmt.Sprint(i)})
	}
	var churnWant []string
	for i := 99; i >= 92; i-- {
		churnWant = append(churnWant, fmt.Sprintf("k%d=%d", i, i))
	}
	cases := []struct {
		name                    string
		cap                     int
		ops                     []op
		want                    []string // most recently used first
		created                 int
		hits, misses, evictions uint64
	}{
		{
			name: "hit_and_miss", cap: 4,
			ops:  []op{{"a", ""}, {"a", "A"}, {"a", ""}},
			want: []string{"a=A"}, created: 1, hits: 1, misses: 1,
		},
		{
			name: "get_refreshes_recency", cap: 2,
			ops:  []op{{"a", "A"}, {"b", "B"}, {"a", ""}, {"c", "C"}, {"b", ""}},
			want: []string{"c=C", "a=A"}, created: 3, hits: 1, misses: 1, evictions: 1,
		},
		{
			name: "put_updates_in_place", cap: 2,
			ops:  []op{{"a", "old"}, {"b", "B"}, {"a", "new"}, {"c", "C"}},
			want: []string{"c=C", "a=new"}, created: 3, evictions: 1,
		},
		{
			name: "bounded_under_churn", cap: 8,
			ops:  churn,
			want: churnWant, created: 100, evictions: 92,
		},
		{
			name: "zero_capacity_holds_nothing", cap: 0,
			ops:    []op{{"a", "A"}, {"a", ""}},
			misses: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLRU[string](tc.cap)
			created := 0
			for _, o := range tc.ops {
				if o.val == "" {
					l.get(o.key)
				} else if l.put(o.key, o.val) {
					created++
				}
			}
			var got []string
			for el := l.order.Front(); el != nil; el = el.Next() {
				it := el.Value.(*lruItem[string])
				got = append(got, it.key+"="+it.val)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("entries %v, want %v", got, tc.want)
			}
			if l.len() != len(tc.want) || len(l.items) != len(tc.want) {
				t.Fatalf("len %d, index %d, want %d", l.len(), len(l.items), len(tc.want))
			}
			if created != tc.created {
				t.Fatalf("created %d, want %d", created, tc.created)
			}
			if l.hits != tc.hits || l.misses != tc.misses || l.evictions != tc.evictions {
				t.Fatalf("hits/misses/evictions %d/%d/%d, want %d/%d/%d",
					l.hits, l.misses, l.evictions, tc.hits, tc.misses, tc.evictions)
			}
		})
	}
}
