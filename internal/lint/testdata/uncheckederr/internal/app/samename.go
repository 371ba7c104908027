package app

// store.Save returns an error; cache.Save shares its name but returns an
// int, and buffer.Flush shares conn.Flush's name but returns nothing. Each
// call is judged by its own callee's signature.
type store struct{}

func (store) Save() error { return nil }

type cache struct{}

func (cache) Save() int { return 0 }

type buffer struct{}

func (buffer) Flush() {}

func persist(s store, c cache, b buffer) {
	s.Save() // want "call to method Save drops its error result"
	c.Save()
	b.Flush()
}
