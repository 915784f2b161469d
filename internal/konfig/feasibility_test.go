package konfig

import (
	"fmt"
	"strings"
	"testing"

	"verikern/internal/arch"
)

// hardwareFeasibility pins Validate's verdict over the hardware axis:
// for each backend, from DefaultPoint, every assignment of the L2
// enable, the L2 kernel lock, the dynamic predictor and the TCM, with
// the pinned L1 ways that make the point feasible among -1…4. A line
// with no ways lists an assignment no pin count rescues.
const hardwareFeasibility = `arm1136 l2=false lock=false bpred=false tcm=false pins=0,1,2,3
arm1136 l2=false lock=false bpred=false tcm=true pins=0,1,2
arm1136 l2=false lock=false bpred=true tcm=false pins=0,1,2,3
arm1136 l2=false lock=false bpred=true tcm=true pins=0,1,2
arm1136 l2=false lock=true bpred=false tcm=false pins=
arm1136 l2=false lock=true bpred=false tcm=true pins=
arm1136 l2=false lock=true bpred=true tcm=false pins=
arm1136 l2=false lock=true bpred=true tcm=true pins=
arm1136 l2=true lock=false bpred=false tcm=false pins=0,1,2,3
arm1136 l2=true lock=false bpred=false tcm=true pins=0,1,2
arm1136 l2=true lock=false bpred=true tcm=false pins=0,1,2,3
arm1136 l2=true lock=false bpred=true tcm=true pins=0,1,2
arm1136 l2=true lock=true bpred=false tcm=false pins=0,1,2,3
arm1136 l2=true lock=true bpred=false tcm=true pins=0,1,2
arm1136 l2=true lock=true bpred=true tcm=false pins=0,1,2,3
arm1136 l2=true lock=true bpred=true tcm=true pins=0,1,2
cva6rt l2=false lock=false bpred=false tcm=false pins=0,1,2,3
cva6rt l2=false lock=false bpred=false tcm=true pins=
cva6rt l2=false lock=false bpred=true tcm=false pins=
cva6rt l2=false lock=false bpred=true tcm=true pins=
cva6rt l2=false lock=true bpred=false tcm=false pins=
cva6rt l2=false lock=true bpred=false tcm=true pins=
cva6rt l2=false lock=true bpred=true tcm=false pins=
cva6rt l2=false lock=true bpred=true tcm=true pins=
cva6rt l2=true lock=false bpred=false tcm=false pins=
cva6rt l2=true lock=false bpred=false tcm=true pins=
cva6rt l2=true lock=false bpred=true tcm=false pins=
cva6rt l2=true lock=false bpred=true tcm=true pins=
cva6rt l2=true lock=true bpred=false tcm=false pins=
cva6rt l2=true lock=true bpred=false tcm=true pins=
cva6rt l2=true lock=true bpred=true tcm=false pins=
cva6rt l2=true lock=true bpred=true tcm=true pins=
`

// TestHardwareFeasibilityTable holds the hardware axis's feasible set
// fixed: a change to where or how hardware feasibility is stated must
// accept and refuse exactly the points it did before.
func TestHardwareFeasibilityTable(t *testing.T) {
	var b strings.Builder
	bools := []bool{false, true}
	for _, id := range arch.BackendIDs() {
		for _, l2 := range bools {
			for _, lock := range bools {
				for _, bpred := range bools {
					for _, tcm := range bools {
						var pins []string
						for pin := -1; pin <= 4; pin++ {
							p := mustDefault(id)
							p.L2Enabled, p.L2LockedKernel, p.BranchPredictor, p.TCMEnabled = l2, lock, bpred, tcm
							p.PinnedL1Ways = pin
							if len(Validate(p)) == 0 {
								pins = append(pins, fmt.Sprint(pin))
							}
						}
						fmt.Fprintf(&b, "%s l2=%t lock=%t bpred=%t tcm=%t pins=%s\n",
							id, l2, lock, bpred, tcm, strings.Join(pins, ","))
					}
				}
			}
		}
	}
	if got := b.String(); got != hardwareFeasibility {
		t.Errorf("hardware feasibility table changed:\n%s\nwant:\n%s", got, hardwareFeasibility)
	}
}
