package mat

// useAVX selects the AVX panel bodies, and through HasAVX the AVX body
// of every other float kernel. It is set once at init from CPUID and
// XGETBV: the CPU must have AVX and the OS must save the YMM registers
// across context switches.
var useAVX = cpuHasAVX()

// useAVX2 reports, through HasAVX2, that the CPU also has AVX2's
// 256-bit integer instructions (CPUID.7.0:EBX bit 5); the OS check is
// AVX's, which saves the same YMM state.
var useAVX2 = useAVX && cpuHasAVX2()

// panelAVX is the panel body in AVX (panels_amd64.s): per column, one
// VBROADCASTSD of x[j], then a VMULPD and a VADDPD into each of four
// YMM accumulators of four rows; after the columns, one VADDPD of the
// rows' bias before each store. No FMA: each lane rounds the multiply
// and the add separately, exactly like panelGo. len(x) must be at
// least 1 and len(w) must be panelRows*len(x).
//
//go:noescape
func panelAVX(w, x []float64, b, out *[panelRows]float64)

// panel2AVX is panelAVX over two consecutive panels in one pass: per
// column, one VBROADCASTSD of x[j] feeds both weight streams and eight
// YMM accumulators, so every weight read shares its x load with a
// second panel. Each lane takes the same steps as in panelAVX. len(x)
// must be at least 1 and len(w) must be 2*panelRows*len(x).
//
//go:noescape
func panel2AVX(w, x []float64, b, out *[2 * panelRows]float64)

// cpuHasAVX reports CPUID.1:ECX.AVX and OSXSAVE, and XCR0 saving both
// the SSE and the AVX state.
func cpuHasAVX() bool

// cpuHasAVX2 reports CPUID.7.0:EBX.AVX2, and false where CPUID has no
// leaf 7.
func cpuHasAVX2() bool
