package server

import (
	"context"
	"testing"
)

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	c.Put("a", []byte("A"))
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	if c.Len() != 0 {
		t.Fatalf("len %d", c.Len())
	}
}

// TestRespondHitAllocatesNothing: a cache hit is one locked lookup; only a
// leader pays for the pending entry and its done channel.
func TestRespondHitAllocatesNothing(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	ctx := context.Background()
	compute := func(context.Context) (any, error) { return "body", nil }
	if _, err := s.respond(ctx, "k", compute); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if out, err := s.respond(ctx, "k", compute); err != nil || out.source != sourceHit {
			t.Fatalf("source %s err %v, want a hit", out.source, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f times, want 0", allocs)
	}
}
