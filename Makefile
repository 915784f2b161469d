# verikern — reproduction of "Improving Interrupt Response Time in a
# Verifiable Protected Microkernel" (EuroSys 2012).

GO ?= go

.PHONY: all build test bench paper vet fmt cover examples

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure of the paper's evaluation.
paper:
	$(GO) run ./cmd/paper

ablations:
	$(GO) run ./cmd/paper -ablations

# bench/ is its own module built against this one's API; vet it too.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

fmt:
	gofmt -w .

cover:
	$(GO) test -cover ./...

examples:
	@for e in quickstart mixedcrit rt-task badge-revoke adversary wcet-analysis; do \
		echo "== examples/$$e =="; $(GO) run ./examples/$$e || exit 1; echo; \
	done
