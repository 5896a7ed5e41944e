package core

// Reference returns c set to run the generic reference paths, the oracle
// the memory-system fast path is validated against. Only tests reach it.
func Reference(c Config) Config {
	c.reference = true
	return c
}
