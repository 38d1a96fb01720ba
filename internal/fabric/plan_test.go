package fabric

import "testing"

func TestRangesCoverDisjoint(t *testing.T) {
	for _, tc := range []struct{ n, size, want int }{
		{0, 10, 0}, {-3, 10, 0},
		{1, 1, 1}, {10, 3, 4}, {9, 3, 3}, {10, 100, 1},
		{10, 0, 1}, {10, -1, 1}, {1000, 100, 10},
	} {
		got := Ranges(tc.n, tc.size)
		if len(got) != tc.want {
			t.Fatalf("Ranges(%d, %d): %d shards, want %d", tc.n, tc.size, len(got), tc.want)
		}
		next := 0
		for i, sh := range got {
			if sh.ID != i {
				t.Fatalf("Ranges(%d, %d): shard %d has ID %d", tc.n, tc.size, i, sh.ID)
			}
			if sh.Lo != next {
				t.Fatalf("Ranges(%d, %d): shard %d starts at %d, want %d (gap or overlap)", tc.n, tc.size, i, sh.Lo, next)
			}
			if sh.Size() <= 0 {
				t.Fatalf("Ranges(%d, %d): shard %d is empty", tc.n, tc.size, i)
			}
			if tc.size > 0 && sh.Size() > tc.size {
				t.Fatalf("Ranges(%d, %d): shard %d covers %d > size", tc.n, tc.size, i, sh.Size())
			}
			next = sh.Hi
		}
		if tc.n > 0 && next != tc.n {
			t.Fatalf("Ranges(%d, %d): covers [0, %d), want [0, %d)", tc.n, tc.size, next, tc.n)
		}
	}
}

func TestShardSplitCoversShard(t *testing.T) {
	sh := Shard{ID: 3, Lo: 250, Hi: 337}
	sub := sh.Split(25)
	next := sh.Lo
	for _, s := range sub {
		if s.Lo != next {
			t.Fatalf("Split: sub-shard starts at %d, want %d", s.Lo, next)
		}
		next = s.Hi
	}
	if next != sh.Hi {
		t.Fatalf("Split: covers to %d, want %d", next, sh.Hi)
	}
}

func TestShardKeyCarriesPlanKeyAndRange(t *testing.T) {
	sh := Shard{ID: 1, Lo: 100, Hi: 200}
	if got, want := sh.Key("bench=x|seed=1"), "bench=x|seed=1|shard=100-200"; got != want {
		t.Fatalf("Shard.Key = %q, want %q", got, want)
	}
}
