package cluster

import "testing"

func TestParseShard(t *testing.T) {
	cases := []struct {
		in            string
		shard, shards int
		wantErr       bool
	}{
		{"", 0, 1, false},
		{"0/1", 0, 1, false},
		{"0/3", 0, 3, false},
		{"2/3", 2, 3, false},
		{"3/3", 0, 0, true},
		{"-1/3", 0, 0, true},
		{"1/0", 0, 0, true},
		{"x/3", 0, 0, true},
		{"2", 0, 0, true},
		{"1/3x", 0, 0, true},
		{"1/3/9", 0, 0, true},
		{"0/1 junk", 0, 0, true},
	}
	for _, c := range cases {
		shard, shards, err := ParseShard(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseShard(%q): want error, got %d/%d", c.in, shard, shards)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseShard(%q): %v", c.in, err)
			continue
		}
		if shard != c.shard || shards != c.shards {
			t.Errorf("ParseShard(%q) = %d/%d, want %d/%d", c.in, shard, shards, c.shard, c.shards)
		}
	}
}
