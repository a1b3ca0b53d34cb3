package power

// PowMinX exposes the kernel's fallback threshold to the external tests.
const PowMinX = powMinX
