package wcet

import "context"

// Cache keys, exported to the external test package.
var (
	GraphKey  = (*Analyzer).graphKey
	ResultKey = (*Analyzer).resultKey
	ClassKey  = (*Analyzer).classKey
	RowsKey   = (*Analyzer).rowsKey
)

// Classify runs classification's phase 1 over the entry's graph,
// bypassing the class tier (the graph comes from a.Cache when set).
// Vectors compare with reflect.DeepEqual.
func Classify(a *Analyzer, entry string) (any, error) {
	g, err := a.graph(context.Background(), entry)
	if err != nil {
		return nil, err
	}
	return a.classify(g), nil
}

// ClassEntries reports the number of class vectors c holds.
func ClassEntries(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.classes.slots)
}

// RowEntries reports the number of row sets c holds.
func RowEntries(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.rows.slots)
}
