package ccache_test

import (
	"bytes"
	"testing"

	"repro/internal/ccache"
)

// FuzzDecodeLease feeds arbitrary bytes to every decoder of the lease
// protocol — the acquire a lease manager serves, the grant a client installs,
// the release or ack, and the recall push. None may panic, and whatever
// decodes must re-encode to exactly the input: a body means one value.
func FuzzDecodeLease(f *testing.F) {
	f.Add(ccache.AppendAcquireArgs(nil, 1, 2, ccache.ModeWrite))
	f.Add(ccache.AppendGrant(nil, ccache.Grant{Ver: 3, Size: -4, TTL: ccache.DefaultTTL}))
	f.Add(ccache.AppendLeaseIDArgs(nil, 5, 6))
	f.Add(ccache.AppendRecall(nil, 7, 8))
	f.Fuzz(func(t *testing.T, body []byte) {
		same := func(what string, again []byte) {
			if !bytes.Equal(again, body) {
				t.Fatalf("%s: %x decodes to a value that encodes to %x", what, body, again)
			}
		}
		if file, client, mode, err := ccache.DecodeAcquireArgs(body); err == nil {
			same("acquire", ccache.AppendAcquireArgs(nil, file, client, mode))
		}
		if g, err := ccache.DecodeGrant(body); err == nil {
			same("grant", ccache.AppendGrant(nil, g))
		}
		if file, client, err := ccache.DecodeLeaseIDArgs(body); err == nil {
			same("lease id", ccache.AppendLeaseIDArgs(nil, file, client))
		}
		if file, ver, err := ccache.DecodeRecall(body); err == nil {
			same("recall", ccache.AppendRecall(nil, file, ver))
		}
	})
}
