package pipeline

// Exported for the external tests in this directory.
var (
	MixedTrace = mixedTrace
	CoreStats  = coreStats
)
