package fit

// Encode serializes the table into exactly one fragment. The layout is:
// magic, CRC, attribute block, direct count, indirect count, descriptors.
func (t *Table) Encode() ([]byte, error) {
	buf := make([]byte, FragmentSize)
	if err := t.EncodeInto(buf); err != nil {
		return nil, err
	}
	return buf, nil
}
