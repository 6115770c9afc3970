package cache

// Len returns the number of cached buffers.
func (c *Cache[K]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Flush writes back every dirty buffer, leaving them cached clean. Buffers
// dirtied concurrently with the Flush may or may not be included.
func (c *Cache[K]) Flush() error {
	for _, key := range c.DirtyKeys() {
		if err := c.FlushKey(key); err != nil {
			return err
		}
	}
	return nil
}

// DirtyCount returns the number of dirty buffers (diagnostic).
func (c *Cache[K]) DirtyCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*entry[K]).dirty {
			n++
		}
	}
	return n
}
