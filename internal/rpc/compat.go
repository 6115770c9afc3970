package rpc

// Declarations only the frozen benchmark compiles against. ROADMAP item 8
// re-signs bench/ and deletes this file.

// WithCtxRequestHandler sets the endpoint's handler, for a caller that
// passed NewEndpoint a nil one (bench/rig.go).
func WithCtxRequestHandler(h Handler) EndpointOption {
	return func(e *Endpoint) { e.handler = h }
}

// WireFormat is inert: there is one wire (see wire.go). bench/rig.go names
// it.
type WireFormat int

// WireBinary is WireFormat's only value (bench/rig.go).
const WireBinary WireFormat = 0

// WithWireFormat is a no-op (bench/rig.go).
func WithWireFormat(WireFormat) TCPOption { return func(*tcpOpts) {} }
