package dag

import "hammerhead/internal/types"

// Lookup exposes lookup, the digest-tag scan Insert resolves an edge with
// when the previous round's slot order does not, to the package's tests.
func (d *DAG) Lookup(digest types.Digest) (*Vertex, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	v := d.lookup(digest)
	return v, v != nil
}
