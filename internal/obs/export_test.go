package obs

// The external test package runs csp computations (csp imports obs), so it
// reaches the reference implementations and the Chrome ranking through
// these.
var (
	CriticalPathQuadratic = criticalPathQuadratic
	StampRanks            = stampRanks
	StampRanksKahn        = stampRanksKahn
)
