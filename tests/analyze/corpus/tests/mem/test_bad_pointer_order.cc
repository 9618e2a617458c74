// Pairs src/mem/bad_pointer_order.cc, so only its seeded rule fires.
