package shortest

// Hooks for the external test package, which builds residual graphs from
// packages that import this one.
var CheckNegCycleVerdict = checkNegCycleVerdict

const MaskedW = maskedW
