package core

// The generators of the internal tests, for the external render test,
// which needs permlang and so cannot live in package core.
var (
	FilterPool = filterPool
	RandomExpr = randomExpr
)
