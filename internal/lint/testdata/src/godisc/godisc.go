// Fixture for the godisc analyzer: go statements and channel operations
// are allowed only in the listed concurrency sites, and nothing in a
// fixture package is listed — so every fenced construct here is a finding,
// however carefully it is joined. The negative case is the module itself
// (TestModuleClean): its four listed sites pass.
package godisc

import "sync"

func work() {}

// A perfectly joined goroutine is still outside the list: the join is
// shown by the site's goroutine-count test, not argued for here. This is the
// audited mutant of engine.MergeHits sorting on a joined goroutine, which
// no run can tell from the sequential sort.
func spawn() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want "go statement in fixture/godisc.spawn, which is not a listed concurrency site"
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

func send(ch chan int) {
	ch <- 1 // want "channel send in fixture/godisc.send"
}

func receive(ch chan int) int {
	return <-ch // want "channel receive in fixture/godisc.receive"
}

func drain(ch chan int) {
	for range ch { // want "range over a channel in fixture/godisc.drain"
	}
}

type pool struct{ done chan struct{} }

// Methods are named with their receiver as the source spells it.
func (p *pool) stop() {
	close(p.done) // want "channel close in fixture/godisc.\(\*pool\).stop"
}

func poll(ch chan int) {
	select { // want "select statement in fixture/godisc.poll"
	case v := <-ch: // want "channel receive in fixture/godisc.poll"
		_ = v
	default:
	}
}

// A literal at package level belongs to no declaration that could be
// listed.
var background = func() {
	go work() // want "go statement in a package-level initializer"
}

// Making a channel and passing it around are not channel operations.
func quiet() chan int {
	ch := make(chan int, 1)
	_ = cap(ch)
	return ch
}
