package wcet

// Cache keys, exported to the external test package.
var (
	GraphKey  = (*Analyzer).graphKey
	ResultKey = (*Analyzer).resultKey
)
