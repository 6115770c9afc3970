package rpcfs

import (
	"context"
	"sort"
)

// The tests live in package rpcfs_test — their rig is built on core.New,
// and core reaches this package through ccache — so the few unexported
// things they touch are exported here, to them only.

// BlobHeaderLen is the length prefix of a blob reply.
const BlobHeaderLen = blobHeaderLen

// AppendPayload and UnmarshalPayload are the payload codec.
var (
	AppendPayload    = appendPayload
	UnmarshalPayload = unmarshalPayload
)

// Call issues one raw request.
func (c *Client) Call(ctx context.Context, method string, args, reply any) error {
	return c.call(ctx, method, args, reply)
}

// Methods returns every method the table declares, sorted.
func Methods() []string {
	ms := make([]string, 0, len(methods))
	for m := range methods {
		ms = append(ms, m)
	}
	sort.Strings(ms)
	return ms
}
