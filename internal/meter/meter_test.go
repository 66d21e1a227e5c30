package meter

import (
	"strings"
	"testing"
)

func TestNilReceiverIsSafe(t *testing.T) {
	var c *Counters
	c.AddCompare(1)
	c.AddMove(2)
	c.AddHash(3)
	c.AddNode(4)
	c.AddAlloc(5)
	c.AddRotation(6)
	c.Reset()
	c.Add(Counters{Comparisons: 9})
	if got := c.String(); got != "meter(nil)" {
		t.Fatalf("nil String() = %q", got)
	}
}

func TestAccumulation(t *testing.T) {
	var c Counters
	c.AddCompare(10)
	c.AddCompare(5)
	c.AddMove(3)
	c.AddHash(2)
	c.AddNode(7)
	c.AddAlloc(1)
	c.AddRotation(4)
	if c.Comparisons != 15 || c.DataMoves != 3 || c.HashCalls != 2 ||
		c.NodesVisited != 7 || c.Allocations != 1 || c.Rotations != 4 {
		t.Fatalf("unexpected counters: %+v", c)
	}
}

func TestAddMerges(t *testing.T) {
	a := Counters{Comparisons: 1, DataMoves: 2, HashCalls: 3, NodesVisited: 4, Allocations: 5, Rotations: 6}
	b := Counters{Comparisons: 10, DataMoves: 20, HashCalls: 30, NodesVisited: 40, Allocations: 50, Rotations: 60}
	a.Add(b)
	want := Counters{Comparisons: 11, DataMoves: 22, HashCalls: 33, NodesVisited: 44, Allocations: 55, Rotations: 66}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

func TestResetZeroes(t *testing.T) {
	c := Counters{Comparisons: 1, Rotations: 2}
	c.Reset()
	if c != (Counters{}) {
		t.Fatalf("Reset left %+v", c)
	}
}

func TestStringContainsEveryCounter(t *testing.T) {
	c := Counters{Comparisons: 1, DataMoves: 2, HashCalls: 3, NodesVisited: 4, Allocations: 5, Rotations: 6}
	s := c.String()
	for _, frag := range []string{"cmp=1", "move=2", "hash=3", "node=4", "alloc=5", "rot=6"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}
