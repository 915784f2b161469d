package measure

import (
	"testing"

	"verikern/internal/arch"
)

// ArchSeed extends the seed-derivation contract across hardware
// backends: the default ARM1136 backend must pass the root through
// unchanged (so every recorded pre-backend artifact stays
// reproducible), while any other backend must derive a distinct,
// stable stream root (so a two-backend soak matrix does not replay
// identical op sequences).

func TestArchSeedIdentityForDefault(t *testing.T) {
	arm := arch.MustLookup(arch.ARM1136ID)
	for _, root := range []uint64{0, 1, 42, 0xDEADBEEF} {
		if got := ArchSeed(root, arm); got != root {
			t.Errorf("ArchSeed(%d, arm1136) = %d, want identity", root, got)
		}
		if got := ArchSeed(root, nil); got != root {
			t.Errorf("ArchSeed(%d, nil) = %d, want identity", root, got)
		}
	}
}

func TestArchSeedDistinctPerBackend(t *testing.T) {
	const root = 42
	seen := map[uint64]string{root: "(root)"}
	for _, id := range arch.BackendIDs() {
		if id == arch.ARM1136ID {
			continue
		}
		b := arch.MustLookup(id)
		s := ArchSeed(root, b)
		if prev, dup := seen[s]; dup {
			t.Errorf("ArchSeed(%d, %s) = %d collides with %s", root, b.ID, s, prev)
		}
		seen[s] = b.ID
		// Stability golden: the derivation is part of the artifact
		// reproducibility contract, like CampaignSeed's.
		if want := CampaignSeed(root, "arch/"+b.ID); s != want {
			t.Errorf("ArchSeed(%d, %s) = %#x, want CampaignSeed(root, %q) = %#x",
				root, b.ID, s, "arch/"+b.ID, want)
		}
	}
}
