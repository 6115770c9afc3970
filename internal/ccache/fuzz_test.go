package ccache_test

import (
	"testing"

	"repro/internal/ccache"
)

// FuzzDecodeLease feeds arbitrary bytes to every decoder of the lease
// protocol — the acquire a lease manager serves, the grant a client installs,
// the release or ack, and the recall push. None may panic, and whatever
// decodes must re-encode to a body that decodes to the same value.
func FuzzDecodeLease(f *testing.F) {
	f.Add(ccache.AppendAcquireArgs(nil, 1, 2, ccache.ModeWrite))
	f.Add(ccache.AppendGrant(nil, ccache.Grant{Ver: 3, Size: -4, TTL: ccache.DefaultTTL}))
	f.Add(ccache.AppendLeaseIDArgs(nil, 5, 6))
	f.Add(ccache.AppendRecall(nil, 7, 8))
	f.Fuzz(func(t *testing.T, body []byte) {
		if file, client, mode, err := ccache.DecodeAcquireArgs(body); err == nil {
			f2, c2, m2, err := ccache.DecodeAcquireArgs(ccache.AppendAcquireArgs(nil, file, client, mode))
			if err != nil || f2 != file || c2 != client || m2 != mode {
				t.Fatalf("acquire %d %d %d re-encoded decodes to %d %d %d, %v", file, client, mode, f2, c2, m2, err)
			}
		}
		if g, err := ccache.DecodeGrant(body); err == nil {
			if g2, err := ccache.DecodeGrant(ccache.AppendGrant(nil, g)); err != nil || g2 != g {
				t.Fatalf("grant %+v re-encoded decodes to %+v, %v", g, g2, err)
			}
		}
		if file, client, err := ccache.DecodeLeaseIDArgs(body); err == nil {
			f2, c2, err := ccache.DecodeLeaseIDArgs(ccache.AppendLeaseIDArgs(nil, file, client))
			if err != nil || f2 != file || c2 != client {
				t.Fatalf("lease id %d %d re-encoded decodes to %d %d, %v", file, client, f2, c2, err)
			}
		}
		if file, ver, err := ccache.DecodeRecall(body); err == nil {
			f2, v2, err := ccache.DecodeRecall(ccache.AppendRecall(nil, file, ver))
			if err != nil || f2 != file || v2 != ver {
				t.Fatalf("recall %d %d re-encoded decodes to %d %d, %v", file, ver, f2, v2, err)
			}
		}
	})
}
