package rpc

import "net"

// Len returns the total number of cached responses (diagnostic).
func (c *DupCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.clients {
		n += len(w.responses)
	}
	return n
}

// Clients returns how many client windows are retained (diagnostic).
func (c *DupCache) Clients() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.clients)
}

// Addr returns the listener address.
func (s *TCPServer) Addr() net.Addr { return s.ln.Addr() }
