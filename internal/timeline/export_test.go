package timeline

// The reference consumers, for the external grid test.
var (
	RefAnalyze          = refAnalyze
	RefWriteChromeTrace = refWriteChromeTrace
)
