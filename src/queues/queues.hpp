// Umbrella header: every queue and stack in the library.
//
//   Core contributions (Michael & Scott, PODC'96):
//     MsQueue       -- non-blocking queue, counted pool indices (Figure 1);
//                      64-bit word by default, 128-bit (cmpxchg16b) as the
//                      tagged::AtomicTagged128 word parameter
//     TwoLockQueue  -- two-lock queue with dummy node (Figure 2)
//   Evaluation baselines (paper section 4):
//     SingleLockQueue     -- one lock around a plain list
//     MellorCrummeyQueue  -- lock-free but blocking ticket/slot ring
//     PljQueue            -- Prakash-Lee-Johnson snapshot queue
//     ValoisQueue         -- reference-counted non-blocking queue
//   Related work / extensions:
//     SpscRing      -- Lamport wait-free single-producer/single-consumer
//     TreiberStack  -- the non-blocking LIFO used as the free list
//     MsQueueHp     -- MS queue with hazard-pointer reclamation (2004)
//     RingQueue     -- ticketed bounded MPMC ring (Vyukov-style, modern)
//     SegmentQueue  -- unbounded FAA-segment queue (LCRQ/SCQ lineage)
//     ScqQueue      -- bounded indirect SCQ ring (Nikolaev): lock-free,
//                      memory bounded at exactly capacity + O(n) indices
//     ShardedQueue  -- queue-of-queues front end with work-stealing dequeue
#pragma once

#include "queues/mellor_crummey_queue.hpp"
#include "queues/ms_queue.hpp"
#include "queues/ms_queue_hp.hpp"
#include "queues/plj_queue.hpp"
#include "queues/queue_concept.hpp"
#include "queues/ring_queue.hpp"
#include "queues/scq_queue.hpp"
#include "queues/segment_queue.hpp"
#include "queues/sharded_queue.hpp"
#include "queues/single_lock_queue.hpp"
#include "queues/spsc_ring.hpp"
#include "queues/treiber_stack.hpp"
#include "queues/two_lock_queue.hpp"
#include "queues/valois_queue.hpp"
