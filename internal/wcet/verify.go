package wcet

import (
	"fmt"
	"sort"

	"verikern/internal/kimage"
	"verikern/internal/loopbound"
)

// BoundModel ties a loop in the kernel image to an IR program whose
// model-checked bound must justify the image's annotation — the §5.3
// machinery that replaces hand annotation with computed bounds and
// "reduc[es] the possibility of human error".
type BoundModel struct {
	// Func and Header locate the annotated loop in the image.
	Func, Header string
	// Program and Head are the IR model and its loop-head index.
	Program *loopbound.Program
	Head    int
}

// VerifyBounds model-checks every supplied loop model and compares the
// inferred bound with the image annotation. An annotation smaller than
// the inferred maximum is unsound (the ILP would underestimate the
// WCET) and is reported as an error; a larger annotation is merely
// conservative and passes. It returns the image's annotated loops that
// no model covers, as sorted "func.header" names: their annotations
// stay unchecked.
//
// The inference counts loop-head executions; an annotation of N body
// iterations corresponds to N+1 head executions.
func VerifyBounds(img *kimage.Image, models []BoundModel) (unmodelled []string, err error) {
	modelled := make(map[string]bool, len(models))
	for _, m := range models {
		f := img.Funcs[m.Func]
		if f == nil {
			return nil, fmt.Errorf("wcet: bound model references unknown function %q", m.Func)
		}
		annotated, ok := f.LoopBounds[m.Header]
		if !ok {
			return nil, fmt.Errorf("wcet: bound model references unannotated loop %s.%s", m.Func, m.Header)
		}
		inferred, err := loopbound.Bound(m.Program, m.Head)
		if err != nil {
			return nil, fmt.Errorf("wcet: inferring bound for %s.%s: %w", m.Func, m.Header, err)
		}
		if annotated < inferred-1 {
			return nil, fmt.Errorf("wcet: UNSOUND annotation on %s.%s: %d body iterations annotated, model checking proves up to %d",
				m.Func, m.Header, annotated, inferred-1)
		}
		modelled[m.Func+"."+m.Header] = true
	}
	for name, f := range img.Funcs {
		for h := range f.LoopBounds {
			if loop := name + "." + h; !modelled[loop] {
				unmodelled = append(unmodelled, loop)
			}
		}
	}
	sort.Strings(unmodelled)
	return unmodelled, nil
}
