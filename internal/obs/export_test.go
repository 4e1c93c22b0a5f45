package obs

// CriticalPathQuadratic exposes the reference walk to the external test
// package, which runs csp computations (csp imports obs).
var CriticalPathQuadratic = criticalPathQuadratic
