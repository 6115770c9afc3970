package rpc

import "net"

// DupLen returns the total number of cached responses (diagnostic).
func (e *Endpoint) DupLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, w := range e.dup.clients {
		n += len(w.responses)
	}
	return n
}

// DupClients returns how many client windows the duplicate cache retains
// (diagnostic).
func (e *Endpoint) DupClients() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.dup.clients)
}

// withMaxClients lowers the duplicate cache's client bound.
func withMaxClients(n int) EndpointOption { return func(e *Endpoint) { e.dup.maxClients = n } }

// Addr returns the listener address.
func (s *TCPServer) Addr() net.Addr { return s.ln.Addr() }
